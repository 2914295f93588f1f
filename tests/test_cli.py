"""Tests for the command-line interface."""

import csv
import json
import math

import pytest

from subnyq import cli
from subnyq.cli import (
    main,
    noise_from_dict,
    parse_sweep,
    scenario_from_dict,
    scheme_from_dict,
    simulate_config_from_dict,
)
from subnyq.signal_core import Scenario, ToneParams
from subnyq.sngem import EstimationResult, ToneFailure


def two_tone_simulate_doc(noise=None):
    doc = {
        "scenario": {
            "band_limit": 1e9,
            "tones": [
                {"amplitude": 1.0, "frequency": 150e6, "phase": 0.4},
                {"amplitude": 0.8, "frequency": 440e6, "phase": -0.9},
            ],
        },
        "scheme": {"variant": "uniform", "num_samples": 512, "sample_rate": 133e6},
        "omp": {"grid_size": 256, "max_iters": 4},
    }
    if noise is not None:
        doc["noise"] = noise
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_sweep():
    assert parse_sweep("40") == [40.0]
    assert parse_sweep("0:10:50") == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert parse_sweep("10:5:49") == [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]
    assert parse_sweep("8:4:20", integer=True) == [8, 12, 16, 20]
    assert parse_sweep("1.5:0.25:2.0") == pytest.approx([1.5, 1.75, 2.0])
    with pytest.raises(ValueError, match="integer"):
        parse_sweep("1:0.5:2", integer=True)
    with pytest.raises(ValueError):
        parse_sweep("abc")
    with pytest.raises(ValueError, match="step"):
        parse_sweep("10:-5:0")
    with pytest.raises(ValueError, match="start:step:stop"):
        parse_sweep("1:2")


def test_crb_table_reference_point(capsys):
    assert main(["crb", "--n", "1000", "--snr-db", "10", "--freq", "1e8"]) == 0
    out = capsys.readouterr().out
    assert "freq_relvar_bound" in out
    assert "0.0002" in out
    assert "0.0001" in out
    assert "3.0103" in out
    assert "note:" in out


def test_crb_csv_mode(capsys):
    assert main(["crb", "--n", "1000", "--snr-db", "10", "--freq", "1e8", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["freq_relvar_bound"]) == pytest.approx(2e-4)
    assert float(row["freq_relvar_single_channel"]) == pytest.approx(1e-4)
    assert float(row["penalty_db"]) == pytest.approx(10 * math.log10(2), abs=1e-6)


def test_crb_sweep_row_count(capsys):
    assert main(["crb", "--n", "1024", "--snr-db", "0:10:50", "--freq", "1e8"]) == 0
    out = capsys.readouterr().out
    data_lines = [
        line for line in out.splitlines() if line.strip() and line.lstrip()[0].isdigit()
    ]
    assert len(data_lines) == 6


def test_crb_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crb", "--snr-db", "10", "--freq", "1e8"])
    assert exc.value.code == 2


def test_crb_bad_sweep_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crb", "--n", "1000:0:2000", "--snr-db", "10", "--freq", "1e8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sweep step must be positive" in err
    assert "_int_sweep_arg" not in err


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(two_tone_simulate_doc(noise={"snr_db": 40.0})))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out2)]) == 0
    for name in ("observation.csv", "truth.csv", "estimates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    rows = read_csv(out1 / "estimates.csv")
    sngem_rows = [r for r in rows if r["method"] == "sngem"]
    omp_rows = [r for r in rows if r["method"] == "omp"]
    assert len(sngem_rows) == 2
    assert omp_rows, "omp produced no rows"
    for r in sngem_rows:
        assert r["fold_index"] != "" and r["mirror"] in ("0", "1")
        assert float(r["ratio"]) > 0.0
    for r in omp_rows:
        # grid method has no fold bookkeeping or amplitude ratio
        assert (r["ratio"], r["f_ratio"], r["fold_index"], r["mirror"]) == ("", "", "", "")

    truth = read_csv(out1 / "truth.csv")
    assert [r["tone_idx"] for r in truth] == ["0", "1"]
    obs_rows = read_csv(out1 / "observation.csv")
    assert len(obs_rows) == 512
    assert set(obs_rows[0]) == {"t", "x", "xdot"}


def test_simulate_reports_each_methods_warnings_and_failures(tmp_path, capsys, monkeypatch):
    def run_method(method, *args):
        return EstimationResult(
            failures=[ToneFailure(1e7, f"{method} failure")], warnings=[f"{method} warning"]
        )

    monkeypatch.setattr(cli, "run_method", run_method)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(two_tone_simulate_doc()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    for method in ("sngem", "omp"):
        assert f"{method}: {method} warning" in err
        assert f"{method}: component at alias 1e+07 Hz failed: {method} failure" in err


def test_simulate_noiseless_accuracy(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(two_tone_simulate_doc()))
    out = tmp_path / "clean"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    by_f = {}
    for r in read_csv(out / "estimates.csv"):
        if r["method"] == "sngem":
            by_f[round(float(r["f_hat"]), -6)] = float(r["f_hat"])
    assert by_f[150e6] == pytest.approx(150e6, rel=1e-10)
    assert by_f[440e6] == pytest.approx(440e6, rel=1e-10)


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"scenario": \n  [unterminated')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_simulate_alias_collision_exits_1(tmp_path, capsys):
    doc = two_tone_simulate_doc()
    doc["scenario"]["tones"] = [
        {"amplitude": 1.0, "frequency": 33e6, "phase": 0.0},
        {"amplitude": 0.8, "frequency": 166e6, "phase": 1.0},
    ]
    doc["methods"] = ["sngem"]
    doc["estimator"] = {"model_order": 2}
    cfg = tmp_path / "collide.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "sngem failed" in capsys.readouterr().err


def test_sweep_compare_plot_chain(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "tone_count_range": [2, 2],
                "compression_grid": [16.0],
                "snr_db_grid": [20.0, 30.0],
                "trials_per_point": 3,
                "n_samples": 256,
                "master_seed": 7,
                "fixed_frequencies": [150e6, 440e6],
                "omp": {"grid_size": 256, "max_iters": 4},
            }
        )
    )
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    for name in ("trials.csv", "summary.csv", "config_echo.json"):
        assert (out / name).exists()
    echoed = json.loads((out / "config_echo.json").read_text())
    assert echoed["master_seed"] == 7

    assert main(["compare", "--in", str(out / "summary.csv")]) == 0
    text = capsys.readouterr().out
    assert "rmse_f[sngem]" in text
    assert "rmse_f[omp]" in text

    assert main(["compare", "--in", str(out / "summary.csv"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["methods"] == ["omp", "sngem"]
    assert len(report["table"]) == 2

    chart1 = tmp_path / "chart1.svg"
    chart2 = tmp_path / "chart2.svg"
    assert main(["plot", "--in", str(out / "summary.csv"), "--out", str(chart1)]) == 0
    assert main(["plot", "--in", str(out / "summary.csv"), "--out", str(chart2)]) == 0
    svg = chart1.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert chart1.read_bytes() == chart2.read_bytes()


def test_plot_missing_column_exits_2(tmp_path, capsys):
    bad = tmp_path / "summary.csv"
    bad.write_text("snr_db,compression,method\n30.0,16.0,sngem\n")
    assert main(["plot", "--in", str(bad), "--out", str(tmp_path / "c.svg")]) == 2
    assert "missing columns" in capsys.readouterr().err


def test_plot_needs_an_output_path(tmp_path, capsys):
    ok = tmp_path / "summary.csv"
    ok.write_text(
        "snr_db,compression,method,rmse_f_rel,rmse_a_rel,rmse_phi_rad,miss_rate,crb_rel,rmse_over_crb\n"
        "30.0,16.0,sngem,1e-3,1e-3,1e-3,0.0,1e-4,10.0\n"
    )
    assert main(["plot", "--in", str(ok)]) == 2
    assert "no output path" in capsys.readouterr().err
    # the spec's own output field works without --out
    spec = tmp_path / "spec.json"
    target = tmp_path / "from_spec.svg"
    spec.write_text(json.dumps({"output": str(target)}))
    assert main(["plot", "--in", str(ok), "--spec", str(spec)]) == 0
    assert target.exists()


def test_compare_empty_summary_exits_2(tmp_path, capsys):
    empty = tmp_path / "summary.csv"
    empty.write_text(
        "snr_db,compression,method,rmse_f_rel,rmse_a_rel,rmse_phi_rad,miss_rate,crb_rel,rmse_over_crb\n"
    )
    assert main(["compare", "--in", str(empty)]) == 2
    assert "no rows" in capsys.readouterr().err


def test_noise_from_dict_rules():
    scenario = Scenario(
        tones=(
            ToneParams(amplitude=2.0, frequency=1e8),
            ToneParams(amplitude=1.0, frequency=2e8),
        ),
        band_limit=1e9,
    )
    noise = noise_from_dict({"snr_db": 20.0}, scenario)
    # referenced to the strongest tone amplitude
    assert noise.sigma_x == pytest.approx(2.0 / math.sqrt(2.0 * 100.0))
    assert noise.convention == "equal_snr"
    direct = noise_from_dict({"sigma_x": 0.25, "convention": "equal_variance"}, scenario)
    assert direct.sigma_x == 0.25
    with pytest.raises(ValueError, match="exactly one"):
        noise_from_dict({"sigma_x": 0.1, "snr_db": 10.0}, scenario)
    with pytest.raises(ValueError, match="exactly one"):
        noise_from_dict({}, scenario)
    with pytest.raises(ValueError, match="noise"):
        noise_from_dict({"sigma": 0.1}, scenario)


def test_config_section_parsers():
    scenario = scenario_from_dict(
        {"band_limit": 1e9, "tones": [{"amplitude": 1.0, "frequency": 5e8}]}
    )
    assert scenario.tones[0].phase == 0.0
    with pytest.raises(ValueError, match="scenario"):
        scenario_from_dict({"band_limit": 1e9, "tones": [], "extra": 1})
    scheme = scheme_from_dict(
        {"variant": "random", "num_samples": 64, "base_rate": 2e9, "compression": 8.0}
    )
    assert scheme.variant == "random"
    with pytest.raises(ValueError, match="scheme"):
        scheme_from_dict({"variant": "uniform", "num_samples": 64, "rate": 1.0})
    with pytest.raises(ValueError, match="methods"):
        simulate_config_from_dict(
            {
                "scenario": {"band_limit": 1e9, "tones": [{"amplitude": 1.0, "frequency": 5e8}]},
                "scheme": {"variant": "uniform", "num_samples": 64, "sample_rate": 1e8},
                "methods": ["fft"],
            }
        )


def _tone_without_amplitude(doc):
    del doc["scenario"]["tones"][0]["amplitude"]


def _scheme_without_variant(doc):
    del doc["scheme"]["variant"]


@pytest.mark.parametrize(
    "edit, section",
    [(_tone_without_amplitude, "scenario tones[0]"), (_scheme_without_variant, "scheme")],
)
def test_simulate_missing_field_exits_2(tmp_path, capsys, edit, section):
    doc = two_tone_simulate_doc()
    edit(doc)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {section}:")


def test_sweep_mistyped_estimator_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"estimator": {"pencil_ratio": "x"}}))
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: estimator:")
