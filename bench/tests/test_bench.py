"""Tests of the benchmark itself (not of subnyq).

    python3 -m pytest bench/tests -q

The smoke runs use each workload's ``tiny`` sweep, so they check plumbing
and output shape, not speed.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import subnyq.experiments  # noqa: E402
import subnyq.sngem  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def runs():
    """Memoized tiny runs keyed by (workload, seed, traced)."""
    cache = {}

    def get(name, seed, traced=False):
        key = (name, seed, traced)
        if key not in cache:
            if traced:
                cache[key] = run.measure_traced(name, seed, tiny=True)
            else:
                cache[key] = run.measure(name, seed, 0.0, tiny=True)
        return cache[key]

    return get


def test_names_are_valid_and_match_the_spec():
    declared = {
        "workloads": [w["name"] for w in SPEC["workloads"]],
        "end_to_end": [m["name"] for m in SPEC["end_to_end"]],
        "per_layer": [m["name"] for m in SPEC["per_layer"]],
    }
    for names in declared.values():
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names), names
    assert declared["workloads"] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _wrapped_attributes():
    exp, sng = subnyq.experiments, subnyq.sngem
    names = {
        exp: (
            "run_trial", "generate_scenario", "match_tones", "synthesize",
            "add_noise", "estimate", "build_dictionary", "prepare_stacked",
            "omp_recover", "ProcessPoolExecutor", "_point_chunk",
        ),
        sng: ("estimate_aliased_spectrum", "estimate_nonuniform", "unfold", "scipy"),
    }
    return {(m, a): getattr(m, a) for m, attrs in names.items() for a in attrs}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_restores_every_wrapper(runs, name):
    before = _wrapped_attributes()
    runs(name, 5, traced=True)
    after = _wrapped_attributes()
    assert [key[1] for key in before if after[key] is not before[key]] == []
    assert tracing._ACTIVE is None


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(runs, name):
    for traced, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        report, metrics, attempted, failed = runs(name, 5, traced)
        line = run.result_line(metrics, units, attempted, failed)
        assert set(line["metrics"]) == set(units)
        for value in line["metrics"].values():
            assert isinstance(value["value"], (int, float))
            assert math.isfinite(value["value"])
        assert line["attempted"] >= 1 and line["failed"] == 0
        json.dumps(line)
        json.dumps(report)


def test_pool_workload_reports_worker_spans(runs):
    _, metrics, _, _ = runs("multitone_uniform", 5, traced=True)
    assert metrics["experiments.pool_starts"] == 1
    assert metrics["experiments.run_trial_ms"] > 0.0
    assert metrics["omp.cache_hit_frac"] == 0.0
    assert 0.0 < metrics["experiments.parallel_efficiency"] <= 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_digests_follow_the_seed(runs, name):
    first = runs(name, 5)[0]["digests"]
    assert runs(name, 5, traced=True)[0]["digests"] == first
    assert run.measure(name, 5, 0.0, tiny=True)[0]["digests"] == first
    other = runs(name, 6)[0]["digests"]
    assert other["trials.csv"] != first["trials.csv"]
    assert other["summary.csv"] != first["summary.csv"]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(40))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
    with pytest.raises(run.checks.CheckFailed):
        run.tail(list(range(10)))


def test_failed_check_exits_without_a_result(monkeypatch, capsys):
    def broken(seed):
        raise run.checks.CheckFailed("forced")

    monkeypatch.setattr(run.checks, "noise_free_gate", broken)
    code = run.main(["--workload", "headline_1tone", "--seed", "1", "--seconds", "1"])
    assert code == 1
    assert capsys.readouterr().out == ""
