"""Tests for the Monte-Carlo sweep harness."""

import importlib.util
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subnyq import experiments
from subnyq.experiments import (
    METHODS,
    ExperimentConfig,
    SummaryRow,
    SweepSummary,
    ToneRow,
    TrialRecord,
    compare_report,
    generate_scenario,
    match_tones,
    read_summary_csv,
    render_compare_text,
    run_sweep,
    run_trial,
    summarize_point,
    trial_seed_sequence,
    write_summary_csv,
)
from subnyq.omp import OmpConfig
from subnyq.signal_core import SamplingScheme, Scenario, ToneParams, synthesize, wrap_phase
from subnyq.sngem import EstimationResult, EstimatorConfig, alias_frequency, estimate

finite = st.floats(allow_nan=False, allow_infinity=False)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def experiment_configs(draw):
    lo = draw(st.integers(1, 20))
    return ExperimentConfig(
        tone_count_range=(lo, draw(st.integers(lo, 30))),
        compression_grid=draw(
            st.lists(st.floats(1.0, 1e3, exclude_min=True), min_size=1, max_size=4)
        ),
        snr_db_grid=draw(
            st.lists(st.one_of(st.none(), st.floats(-50.0, 100.0)), min_size=1, max_size=4)
        ),
        trials_per_point=draw(st.integers(1, 10_000)),
        band_limit=draw(st.floats(1.0, 1e12)),
        n_samples=draw(st.integers(8, 1 << 16)),
        master_seed=draw(st.integers(0, 2**63)),
        methods=draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)),
        noise_convention=draw(st.sampled_from(("equal_variance", "equal_snr"))),
        scheme_variant=draw(st.sampled_from(("uniform", "random"))),
        fixed_frequencies=draw(st.one_of(st.none(), st.lists(finite, min_size=1))),
        unit_amplitudes=draw(st.booleans()),
        oracle_model_order=draw(st.booleans()),
        estimator=EstimatorConfig(
            model_order=draw(st.one_of(st.none(), st.integers(1, 64))),
            pencil_ratio=draw(open_unit),
            sv_threshold=draw(open_unit),
            refine_iters=draw(st.integers(0, 5)),
        ),
        omp=OmpConfig(
            grid_size=draw(st.integers(1, 1 << 14)),
            max_iters=draw(st.integers(1, 64)),
            residual_tol=draw(st.floats(0.0, 1.0)),
            use_derivative_channel=draw(st.booleans()),
        ),
    )


optional = st.one_of(st.none(), st.floats(allow_nan=False))
summary_rows = st.builds(
    SummaryRow,
    snr_db=optional,
    compression=st.floats(allow_nan=False),
    method=st.sampled_from(METHODS),
    rmse_f_rel=optional,
    rmse_a_rel=optional,
    rmse_phi_rad=optional,
    miss_rate=st.floats(allow_nan=False),
    crb_rel=optional,
    rmse_over_crb=optional,
)


def small_config(**overrides):
    base = dict(
        tone_count_range=(2, 2),
        compression_grid=(16.0,),
        snr_db_grid=(30.0,),
        trials_per_point=3,
        n_samples=256,
        master_seed=7,
        fixed_frequencies=(150e6, 440e6),
        omp={"grid_size": 256, "max_iters": 4},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_trial_seeds_distinct():
    combos = [
        (snr, comp, t)
        for snr in (None, 10.0, 10.000001, 30.0)
        for comp in (8.0, 16.0)
        for t in (0, 1, 7)
    ]
    states = {
        tuple(trial_seed_sequence(99, snr, comp, t).generate_state(2))
        for snr, comp, t in combos
    }
    assert len(states) == len(combos)
    # and the master seed itself separates streams
    a = trial_seed_sequence(1, 10.0, 8.0, 0).generate_state(2)
    b = trial_seed_sequence(2, 10.0, 8.0, 0).generate_state(2)
    assert tuple(a) != tuple(b)


def test_match_tones_greedy_one_to_one():
    assigned, spurious = match_tones([100.0, 200.0, 300.0], [299.0, 101.0])
    assert assigned == [1, None, 0]
    assert spurious == []
    assigned, spurious = match_tones([100.0, 200.0], [101.0, 199.0, 555.0])
    assert assigned == [0, 1]
    assert spurious == [2]
    assigned, spurious = match_tones([100.0], [])
    assert assigned == [None]
    assert spurious == []


def test_config_round_trip_and_unknown_keys():
    cfg = small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError, match="experiment config"):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="estimator"):
        ExperimentConfig.from_dict({"estimator": {"bogus": 1}})
    with pytest.raises(ValueError, match="omp"):
        ExperimentConfig.from_dict({"omp": {"bogus": 1}})
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig.from_dict({"methods": ["fft"]})
    with pytest.raises(ValueError, match="snr_db_grid"):
        ExperimentConfig.from_dict({"snr_db_grid": []})


@given(experiment_configs())
def test_config_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@given(st.lists(summary_rows, max_size=6))
def test_summary_csv_round_trip_property(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summary.csv"
        write_summary_csv(SweepSummary(rows=rows), path)
        assert read_summary_csv(path).rows == rows


def test_generate_scenario_constraints():
    cfg = ExperimentConfig()
    scheme = SamplingScheme(variant="uniform", num_samples=1024, sample_rate=125e6)
    min_sep = 4.0 / scheme.duration()
    fs = scheme.sample_rate
    for seed in range(10):
        scenario = generate_scenario(np.random.default_rng(seed), cfg, scheme)
        k = len(scenario.tones)
        assert cfg.tone_count_range[0] <= k <= cfg.tone_count_range[1]
        freqs = np.array(scenario.frequencies)
        assert np.all(freqs > 0.02 * cfg.band_limit)
        assert np.all(freqs < 0.98 * cfg.band_limit)
        assert np.all(np.diff(freqs) >= min_sep)
        aliases = np.sort([alias_frequency(f, fs) for f in freqs])
        assert aliases[0] >= min_sep
        assert aliases[-1] <= fs / 2.0 - min_sep
        assert np.all(np.diff(aliases) >= min_sep)
        assert np.allclose(scenario.amplitudes, 1.0)


def test_fixed_frequencies_pin_the_tones():
    cfg = small_config()
    scheme = SamplingScheme(variant="uniform", num_samples=256, sample_rate=125e6)
    s1 = generate_scenario(np.random.default_rng(0), cfg, scheme)
    s2 = generate_scenario(np.random.default_rng(1), cfg, scheme)
    assert list(s1.frequencies) == [150e6, 440e6]
    assert list(s2.frequencies) == [150e6, 440e6]
    # phases stay random draw to draw
    assert list(s1.phases) != list(s2.phases)


def test_run_trial_reproducible():
    cfg = small_config()
    first = run_trial(cfg, 30.0, 16.0, trial_index=1)
    second = run_trial(cfg, 30.0, 16.0, trial_index=1)
    stripped = [replace(r, wall_time=0.0) for r in first]
    assert stripped == [replace(r, wall_time=0.0) for r in second]
    assert {r.method for r in first} == {"sngem", "omp"}
    # a different trial index draws different noise and phases
    third = run_trial(cfg, 30.0, 16.0, trial_index=2)
    assert stripped != [replace(r, wall_time=0.0) for r in third]


def test_run_trial_noiseless_matches_truth():
    cfg = small_config(methods=("sngem",))
    (record,) = run_trial(cfg, None, 16.0, trial_index=0)
    assert record.snr_db is None
    assert len(record.rows) == 2
    for row in record.rows:
        assert row.matched
        assert abs(row.f_hat - row.f_true) / row.f_true < 1e-8
        assert abs(row.a_hat - row.a_true) < 1e-8
    (summary_row,) = summarize_point([record], cfg.n_samples)
    assert summary_row.crb_rel is None
    assert summary_row.rmse_over_crb is None
    assert summary_row.miss_rate == 0.0
    assert summary_row.rmse_f_rel < 1e-8


def _load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _load_bench_workloads()


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS.WORKLOADS))
def test_bench_estimate_inputs_match_run_trial(monkeypatch, name):
    # bench/workloads.py copies run_trial's scheme, seed and noise set-up for
    # its closed estimate() loop; the copies must draw the same inputs
    bench = BENCH_WORKLOADS
    cfg = replace(bench.config(bench.WORKLOADS[name], seed=1), methods=("sngem",))
    calls = []

    def record(obs, est_cfg, band_limit):
        calls.append((obs, est_cfg))
        return EstimationResult()

    monkeypatch.setattr(experiments, "estimate", record)
    points = bench.points(cfg)
    for i, (expected_obs, expected_cfg) in enumerate(bench.estimate_inputs(cfg, 3)):
        snr_db, compression = points[i % len(points)]
        run_trial(cfg, snr_db, compression, cfg.trials_per_point + i)
        obs, est_cfg = calls[-1]
        for channel in ("times", "x", "xdot"):
            np.testing.assert_array_equal(getattr(obs, channel), getattr(expected_obs, channel))
        assert (obs.sigma_x, obs.sigma_xdot) == (expected_obs.sigma_x, expected_obs.sigma_xdot)
        assert est_cfg == expected_cfg


def test_omp_cache_keys_on_the_noise_ratio(monkeypatch):
    scheme = SamplingScheme(variant="uniform", num_samples=64, sample_rate=133e6)
    scenario = Scenario(tones=(ToneParams(amplitude=1.0, frequency=1e8, phase=0.3),), band_limit=1e9)
    obs = synthesize(scenario, scheme)
    builds = []
    build = experiments.build_dictionary
    monkeypatch.setattr(
        experiments, "build_dictionary", lambda *args: builds.append(args) or build(*args)
    )
    cache = {}
    omp_cfg = OmpConfig(grid_size=64, max_iters=1)
    for sigma_x in (0.01, 0.02):  # bitwise-equal sigma_x / sigma_xdot: one system
        noisy = replace(obs, sigma_x=sigma_x, sigma_xdot=sigma_x * 3e8)
        experiments.run_method("omp", noisy, None, omp_cfg, 1e9, cache)
    assert len(builds) == 1
    noisy = replace(obs, sigma_x=0.01, sigma_xdot=0.01 * 4e8)
    experiments.run_method("omp", noisy, None, omp_cfg, 1e9, cache)
    assert len(builds) == 2


def test_summarize_point_arithmetic():
    rows_a = (
        ToneRow(0, 100.0, 1.0, -3.1, 101.0, 1.1, 3.1, True),
        ToneRow(1, 200.0, 1.0, 0.5, 202.0, 0.9, 0.5, True),
        ToneRow(2, 300.0, 1.0, 0.0, None, None, None, False),
        ToneRow(-1, None, None, None, 555.0, 0.3, 0.1, False),
    )
    rec = TrialRecord(30.0, 16.0, "sngem", 0, rows_a, 0.01)
    (row,) = summarize_point([rec], n_samples=64)
    assert row.rmse_f_rel == pytest.approx(0.01)
    assert row.rmse_a_rel == pytest.approx(0.1)
    wrapped = float(wrap_phase(3.1 - (-3.1)))
    assert row.rmse_phi_rad == pytest.approx(abs(wrapped) / math.sqrt(2.0))
    assert row.miss_rate == pytest.approx(1.0 / 3.0)
    crb = math.sqrt(2.0 / (64 * 10.0 ** 3.0))
    assert row.crb_rel == pytest.approx(crb)
    assert row.rmse_over_crb == pytest.approx(0.01 / crb)


def test_summarize_point_all_missed():
    rows = (ToneRow(0, 100.0, 1.0, 0.0, None, None, None, False),)
    rec = TrialRecord(20.0, 8.0, "omp", 0, rows, 0.0)
    (row,) = summarize_point([rec], n_samples=64)
    assert row.rmse_f_rel is None
    assert row.rmse_over_crb is None
    assert row.miss_rate == 1.0


def test_run_sweep_outputs_deterministic(tmp_path):
    cfg = small_config()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    s1 = run_sweep(cfg, out_dir=out1, workers=1)
    s2 = run_sweep(cfg, out_dir=out2, workers=1)
    for name in ("trials.csv", "summary.csv", "config_echo.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert len(s1.rows) == 2  # one point, two methods
    assert [r.method for r in s1.rows] == [r.method for r in s2.rows]
    header = (out1 / "trials.csv").read_text().splitlines()[0]
    assert header == "snr_db,compression,method,trial,tone_idx,f_true_hz,f_hat_hz,a_true,a_hat,phi_true_rad,phi_hat_rad,matched"


needs_openblas = pytest.mark.skipif(
    not experiments._openblas_controls(), reason="no bundled OpenBLAS found"
)


def blas_counts():
    return [get() for get, _ in experiments._openblas_controls()]


@needs_openblas
def test_sweep_outputs_do_not_depend_on_caller_blas_threads(tmp_path):
    uniform = ExperimentConfig(
        snr_db_grid=(10.0,), compression_grid=(20.0,), trials_per_point=4, master_seed=3
    )
    # the random path's Gauss-Newton projections run through LAPACK too
    random = replace(
        uniform,
        scheme_variant="random",
        n_samples=256,
        tone_count_range=(3, 3),
        compression_grid=(8.0,),
    )
    for cfg in (uniform, random):
        out = tmp_path / cfg.scheme_variant
        with experiments._blas_threads(1):
            run_sweep(cfg, out_dir=out / "one", workers=1)
        with experiments._blas_threads(2):
            run_sweep(cfg, out_dir=out / "two", workers=1)
        run_sweep(cfg, out_dir=out / "pool", workers=2)
        for name in ("trials.csv", "summary.csv"):
            reference = (out / "one" / name).read_bytes()
            for variant in ("two", "pool"):
                assert (out / variant / name).read_bytes() == reference, (
                    cfg.scheme_variant, name, variant,
                )


@needs_openblas
def test_sweep_restores_caller_blas_threads(monkeypatch):
    cfg = small_config()
    real_trial = experiments.run_trial
    seen = []

    def spy(*args):
        seen.append(blas_counts())
        return real_trial(*args)

    def failing(*args):
        raise RuntimeError("trial failed")

    with experiments._blas_threads(2):
        caller = blas_counts()
        monkeypatch.setattr(experiments, "run_trial", spy)
        run_sweep(cfg, workers=1)
        assert seen and all(c == [1] * len(caller) for c in seen)
        assert blas_counts() == caller
        monkeypatch.setattr(experiments, "run_trial", failing)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_sweep(cfg, workers=1)
        assert blas_counts() == caller
        tone = ToneParams(frequency=440e6, amplitude=1.0, phase=0.3)
        obs = synthesize(
            Scenario(tones=(tone,), band_limit=1e9),
            SamplingScheme(variant="uniform", num_samples=256, sample_rate=125e6),
        )
        estimate(obs, EstimatorConfig(model_order=1), 1e9)
        assert blas_counts() == caller


def test_sweep_starts_one_pool(monkeypatch, tmp_path):
    started = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    cfg = small_config(snr_db_grid=(20.0, 30.0, 40.0), trials_per_point=3)
    pooled = run_sweep(cfg, out_dir=tmp_path / "pool", workers=2)
    assert started == [2]  # 3 points x 2 chunks on one pool
    serial = run_sweep(cfg, out_dir=tmp_path / "serial", workers=1)
    assert started == [2]
    assert pooled.rows == serial.rows
    assert (tmp_path / "pool" / "trials.csv").read_bytes() == (
        tmp_path / "serial" / "trials.csv"
    ).read_bytes()
    run_sweep(replace(cfg, trials_per_point=1), workers=8)
    assert started == [2, 3]  # never more workers than chunks


@pytest.mark.parametrize("trials, workers", [(51, 2), (1, 2), (3, 8), (10, 4), (100, 1)])
def test_chunk_spans_are_balanced(trials, workers):
    spans = experiments._chunk_spans(trials, workers)
    assert len(spans) == min(trials, workers)
    assert spans[0][0] == 0 and spans[-1][1] == trials
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [hi - lo for lo, hi in spans]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_worker_count_counts_usable_cpus(monkeypatch):
    monkeypatch.delenv("SUBNYQ_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments._worker_count() == 1
    monkeypatch.setenv("SUBNYQ_THREADS", "3")
    assert experiments._worker_count() == 3


def test_summary_csv_round_trip(tmp_path):
    summary = SweepSummary(
        rows=[
            SummaryRow(30.0, 16.0, "sngem", 1.234e-4, 2e-3, 3e-3, 0.0, 1e-4, 1.234),
            SummaryRow(None, 8.0, "omp", None, None, None, 1.0, None, None),
        ]
    )
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    again = read_summary_csv(path)
    assert again.rows == summary.rows

    bad = tmp_path / "bad.csv"
    lines = path.read_text().splitlines()
    cols = lines[0].split(",")
    drop = cols.index("crb_rel")
    trimmed = [",".join(line.split(",")[:drop] + line.split(",")[drop + 1 :]) for line in lines]
    bad.write_text("\n".join(trimmed) + "\n")
    with pytest.raises(ValueError, match="crb_rel"):
        read_summary_csv(bad)

    # compression and miss_rate must hold a value; the other numbers may be blank
    for column in ("compression", "miss_rate"):
        cells = lines[1].split(",")
        cells[cols.index(column)] = ""
        blank = tmp_path / f"blank_{column}.csv"
        blank.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
        with pytest.raises(ValueError):
            read_summary_csv(blank)


def test_compare_report_flags_error_floor():
    rows = []
    for snr in (30.0, 40.0, 50.0):
        snr_lin = 10.0 ** (snr / 10.0)
        crb = math.sqrt(2.0 / (1024 * snr_lin))
        rows.append(SummaryRow(snr, 16.0, "sngem", crb, crb, crb, 0.0, crb, 1.0))
        rows.append(SummaryRow(snr, 16.0, "omp", 4.0e-3, 1e-2, 1e-2, 0.1, crb, None))
    summary = SweepSummary(rows=rows)
    report = compare_report(summary)
    assert report["error_floor_flags"]["omp"] == {"16.0": True}
    assert report["error_floor_flags"]["sngem"] == {"16.0": False}
    first = report["table"][0]
    assert first["rmse_ratio_omp_over_sngem"] == pytest.approx(
        4.0e-3 / math.sqrt(2.0 / (1024 * 1e3))
    )
    text = render_compare_text(report)
    assert "error floor: omp" in text
    assert "sngem" in text.splitlines()[0]

    with pytest.raises(ValueError, match="no rows"):
        compare_report(SweepSummary())


def test_compare_report_notes_absent_method():
    rows = [SummaryRow(30.0, 8.0, "sngem", 1e-3, 1e-3, 1e-3, 0.0, 1e-4, 10.0)]
    report = compare_report(SweepSummary(rows=rows))
    assert any("omp" in note for note in report["notes"])
    assert "omp" not in report["error_floor_flags"]
