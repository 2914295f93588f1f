"""Run one subnyq benchmark workload and print its metrics.

    python3 bench/run.py --workload headline_1tone --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
``--trace 0`` the run measures the end-to-end metrics, with ``--trace 1`` it
runs the sweep plainly, under the layer tracer and plainly again, and reports
the per-layer metrics.  Human-readable lines and a JSON report come first;
the last line of standard output is the result object.  A failed output
check exits with code 1 and prints no result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import subnyq  # noqa: E402

if not Path(subnyq.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"subnyq was imported from {subnyq.__file__}, not from {SRC}")

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "trials_per_s": "1/s",
    "estimate_p50_ms": "ms",
    "estimate_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recovered_frac": "fraction",
}

PER_LAYER = {
    "sngem.estimate_ms": "ms",
    "sngem.aliased_spectrum_ms": "ms",
    "sngem.svd_ms": "ms",
    "sngem.svd_calls": "count",
    "sngem.eigvals_ms": "ms",
    "sngem.unfold_ms": "ms",
    "sngem.fold_fail_frac": "fraction",
    "sngem.nonuniform_ms": "ms",
    "sngem.nonuniform_self_frac": "fraction",
    "sngem.search_ms": "ms",
    "sngem.search_calls": "count",
    "sngem.search_nfev": "count",
    "omp.build_dictionary_ms": "ms",
    "omp.prepare_stacked_ms": "ms",
    "omp.dictionary_bytes": "bytes",
    "omp.cache_hit_frac": "fraction",
    "omp.recover_ms": "ms",
    "omp.iterations": "count",
    "signal_core.synthesize_ms": "ms",
    "signal_core.add_noise_ms": "ms",
    "experiments.generate_scenario_ms": "ms",
    "experiments.match_tones_ms": "ms",
    "experiments.run_trial_ms": "ms",
    "experiments.harness_frac": "fraction",
    "experiments.pool_starts": "count",
    "experiments.parallel_efficiency": "fraction",
}

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SUBNYQ_THREADS",
)

SETUP_REPS = 3
TAIL_BEYOND = 10  # samples above the reported tail percentile
ROOT_SPAN = "experiments.run_sweep"

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.config(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]))"
)


# -- environment record -------------------------------------------------------

def _blas_threads(module):
    """Thread count reported by the OpenBLAS bundled with a package, if any."""
    pkg = Path(module.__file__).parent
    for lib in sorted(glob.glob(str(pkg.parent / f"{module.__name__}.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": _blas_threads(module)}


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "subnyq").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- measurement pieces ---------------------------------------------------------

def setup_seconds(name: str, seed: int, reps: int):
    """Wall time of fresh interpreters that import subnyq and build the config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), name, str(seed)]
    times = []
    for i in range(reps + 1):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first start writes bytecode caches
            times.append(time.perf_counter() - start)
    return times


def output_digests(out_dir: Path) -> dict:
    return {n: checks.digest(out_dir / n) for n in ("trials.csv", "summary.csv")}


def sweep(cfg, workers: int, out_dir: Path, tracer=None):
    """One run_sweep call; returns its wall time in seconds."""
    span = tracer.open(ROOT_SPAN) if tracer is not None else None
    start = time.perf_counter()
    subnyq.run_sweep(cfg, out_dir=out_dir, workers=workers)
    wall = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return wall


def latency_pass(cfg, inputs):
    """Closed loop, one caller: subnyq.estimate on each input in turn."""
    latencies, failed = [], 0
    for obs, est_cfg in inputs:
        start = time.perf_counter()
        try:
            result = subnyq.estimate(obs, est_cfg, cfg.band_limit)
        except subnyq.EstimationError:
            failed += 1
            continue
        latencies.append(time.perf_counter() - start)
        checks.estimate_output(result, est_cfg.model_order)
    return latencies, failed


def tail(values):
    """Value with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    checks.require(
        len(ordered) > TAIL_BEYOND,
        f"{len(ordered)} latency samples leave no tail with {TAIL_BEYOND} beyond it",
    )
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def check_sweep(out_dir: Path, wl, cfg, pts) -> dict:
    """Read the sweep's CSVs back; add the accuracy figures and apply the gate.

    The accuracy figures pool every recovered tone of the noisy points, in
    units of the ratio bound crb_rel; ``*_worst_point_over_crb`` is the
    per-point form, the largest summary rmse_over_crb.
    """
    parsed = checks.sweep_outputs(out_dir, cfg, pts)
    acc = {}
    for method, errs in sorted(parsed["scaled_errors"].items()):
        if errs:
            acc[f"{method}_rms_over_crb"] = statistics.fmean(e * e for e in errs) ** 0.5
            acc[f"{method}_median_abs_over_crb"] = statistics.median(abs(e) for e in errs)
    for method, worst in parsed["worst_point_over_crb"].items():
        acc[f"{method}_worst_point_over_crb"] = worst
    if wl.accuracy_ceiling is not None:
        checks.require(
            acc.get("sngem_rms_over_crb", math.inf) <= wl.accuracy_ceiling,
            f"sngem RMS error {acc.get('sngem_rms_over_crb')} times the bound "
            f"exceeds {wl.accuracy_ceiling}",
        )
    parsed["accuracy"] = acc
    return parsed


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- the two kinds of run -----------------------------------------------------------

def measure(name: str, seed: int, seconds: float, tiny: bool = False):
    """Untraced run: end-to-end metrics.  Returns (report, metrics, attempted, failed)."""
    wl = workloads.WORKLOADS[name]
    cfg = workloads.config(wl, seed, tiny)
    pts = workloads.points(cfg)
    n_workers = workloads.workers(wl)
    out_dir = _fresh_dir(ROOT / ".bench_out" / name / f"seed{seed}")
    report = {"workload": name, "environment": environment(seed)}
    report["noise_free_gate"] = checks.noise_free_gate(seed)

    # Sweeps and estimate() calls alternate over a few rounds.  The sweep
    # rate is the best round's: other load on a shared machine only ever
    # slows a round down, and a change to the program moves every round.
    n_trials = len(pts) * cfg.trials_per_point
    inputs = workloads.estimate_inputs(cfg, 11 if tiny else wl.estimate_calls)
    subnyq.estimate(inputs[0][0], inputs[0][1], cfg.band_limit)  # warm-up
    rates, walls, latencies, est_failed, digests = [], [], [], 0, None
    for r in range(wl.rounds):
        round_walls = []
        while not round_walls or sum(round_walls) < seconds / wl.rounds:
            round_walls.append(sweep(cfg, n_workers, out_dir))
            new = output_digests(out_dir)
            checks.require(digests in (None, new), "a rerun of the same sweep changed its CSVs")
            digests = new
        walls += round_walls
        rates.append(n_trials * len(round_walls) / sum(round_walls))
        lat, failed = latency_pass(cfg, inputs[r :: wl.rounds])
        latencies += lat
        est_failed += failed
    parsed = check_sweep(out_dir, wl, cfg, pts)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    tail_s, tail_pct = tail(latencies)
    setups = setup_seconds(name, seed, 1 if tiny else SETUP_REPS)

    metrics = {
        "trials_per_s": max(rates),
        "estimate_p50_ms": 1e3 * statistics.median(latencies),
        "estimate_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "recovered_frac": 1.0 - parsed["missed_tones"] / parsed["true_tones"],
    }
    report.update(
        workers=n_workers,
        sweep_trials=n_trials,
        sweep_walls_s=walls,
        round_trials_per_s=rates,
        digests=digests,
        true_tones=parsed["true_tones"],
        missed_tones=parsed["missed_tones"],
        accuracy=parsed["accuracy"],
        estimate_calls=len(latencies) + est_failed,
        estimate_failed=est_failed,
        estimate_tail_percentile=tail_pct,
        estimate_tail_samples_beyond=TAIL_BEYOND,
        setup_runs_s=setups,
        output_dir=str(out_dir.relative_to(ROOT)),
    )
    return report, metrics, n_trials * len(walls) + len(inputs), est_failed


def measure_traced(name: str, seed: int, tiny: bool = False):
    """Traced run: per-layer metrics of one traced sweep.  Same return shape."""
    wl = workloads.WORKLOADS[name]
    cfg = workloads.config(wl, seed, tiny)
    pts = workloads.points(cfg)
    n_workers = workloads.workers(wl)
    base = _fresh_dir(ROOT / ".bench_out" / name / f"seed{seed}-traced")
    report = {"workload": name, "environment": environment(seed)}
    report["noise_free_gate"] = checks.noise_free_gate(seed)
    n_trials = len(pts) * cfg.trials_per_point

    # plain sweeps before and after the traced one, so that the first
    # sweep's warm-up does not count as tracing overhead
    plain_dir = _fresh_dir(base / "plain")
    traced_dir = _fresh_dir(base / "traced")
    spans_dir = _fresh_dir(base / "worker_spans")
    plain_walls = [sweep(cfg, n_workers, plain_dir)]
    with tracing.Tracer(spans_dir) as tracer:
        traced_wall = sweep(cfg, n_workers, traced_dir, tracer)
    tracer.merge_worker_spans()
    plain_walls.append(sweep(cfg, n_workers, plain_dir))
    plain_wall = statistics.fmean(plain_walls)
    check_sweep(traced_dir, wl, cfg, pts)
    digests = output_digests(traced_dir)
    checks.require(
        output_digests(plain_dir) == digests, "tracing changed the sweep's CSVs"
    )

    metrics = tracing.layer_metrics(tracer, ROOT_SPAN)
    report.update(
        workers=n_workers,
        sweep_trials=n_trials,
        trials_per_s_untraced=n_trials / plain_wall,
        trials_per_s_traced=n_trials / traced_wall,
        tracing_overhead_frac=traced_wall / plain_wall - 1.0,
        digests=digests,
        output_dir=str(base.relative_to(ROOT)),
        **tracing.coverage(tracer, ROOT_SPAN),
    )
    (base / "spans.json").write_text(
        json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)})
    )
    return report, metrics, 3 * n_trials, 0


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    checks.require(set(metrics) == set(units), "metric set differs from the declared one")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            report, metrics, attempted, failed = measure_traced(args.workload, args.seed)
            units = PER_LAYER
        else:
            report, metrics, attempted, failed = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
        result = result_line(metrics, units, attempted, failed)
    except checks.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / report["output_dir"]
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for key in units:
        print(f"{key:34s} {metrics[key]:>16.6g} {units[key]}")
    if args.trace:
        print(
            f"trials_per_s untraced {report['trials_per_s_untraced']:.4g}, traced "
            f"{report['trials_per_s_traced']:.4g} (tracing overhead "
            f"{100 * report['tracing_overhead_frac']:.1f} %); "
            f"{100 * report['unattributed_frac']:.2f} % of the traced sweep in no layer span"
        )
    else:
        print(
            f"estimate_tail_ms is p{report['estimate_tail_percentile']:.1f} of "
            f"{report['estimate_calls']} calls"
        )
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
