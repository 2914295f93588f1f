"""Monte-Carlo comparison harness.

A sweep iterates operating points (snr_db x compression), runs seeded trials
for each configured method, matches estimates to truth, and aggregates RMSE
columns next to the ratio-propagated bound sqrt(2/(N*SNR)).

Determinism contract: every trial's randomness derives from
(master_seed, point, trial_index) through a splittable counter, so reruns of
the same config are byte-identical in both CSV outputs, regardless of how
many worker processes are used or how many threads the caller's BLAS runs.
Records are folded in (point, trial, method) order after collection.  Trials
run at one OpenBLAS thread (the count changes summation order): process-global
state for the duration of the sweep, with the caller's count restored after.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .omp import OmpConfig, _relative_weight, build_dictionary, omp_recover, prepare_stacked
from .signal_core import (
    NoiseConfig,
    SamplingScheme,
    Scenario,
    ToneParams,
    add_noise,
    synthesize,
    wrap_phase,
)
from .sngem import EstimationError, EstimatorConfig, alias_frequency, estimate

TRIAL_COLUMNS = (
    "snr_db",
    "compression",
    "method",
    "trial",
    "tone_idx",
    "f_true_hz",
    "f_hat_hz",
    "a_true",
    "a_hat",
    "phi_true_rad",
    "phi_hat_rad",
    "matched",
)

METHODS = ("sngem", "omp")

# placement margins for generated tones, in units of 1/duration
_SEPARATION_CYCLES = 4.0
_PLACEMENT_ATTEMPTS = 200


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition.

    snr_db_grid entries may be None for noise-free trials.  With
    oracle_model_order the estimators are told the true tone count of each
    trial (model order selection is exercised separately); otherwise the
    counts configured in estimator/omp apply.  fixed_frequencies pins the
    tone frequencies (tone count follows) while phases stay random.
    """

    tone_count_range: tuple = (5, 15)
    compression_grid: tuple = (8.0, 12.0, 16.0, 20.0)
    snr_db_grid: tuple = (10.0, 20.0, 30.0, 40.0, 50.0)
    trials_per_point: int = 100
    band_limit: float = 1.0e9
    n_samples: int = 1024
    master_seed: int = 20260101
    methods: tuple = METHODS
    noise_convention: str = "equal_snr"
    scheme_variant: str = "uniform"
    fixed_frequencies: tuple | None = None
    unit_amplitudes: bool = True
    oracle_model_order: bool = True
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    omp: OmpConfig = field(default_factory=OmpConfig)

    def __post_init__(self):
        object.__setattr__(self, "tone_count_range", tuple(self.tone_count_range))
        object.__setattr__(self, "compression_grid", tuple(self.compression_grid))
        object.__setattr__(self, "snr_db_grid", tuple(self.snr_db_grid))
        object.__setattr__(self, "methods", check_methods(self.methods))
        if self.fixed_frequencies is not None:
            object.__setattr__(
                self, "fixed_frequencies", tuple(self.fixed_frequencies)
            )
        object.__setattr__(
            self, "estimator", config_section(EstimatorConfig, self.estimator, "estimator")
        )
        object.__setattr__(self, "omp", config_section(OmpConfig, self.omp, "omp"))
        lo, hi = self.tone_count_range
        if lo < 1 or hi < lo:
            raise ValueError("tone_count_range must be 1 <= lo <= hi")
        if len(self.compression_grid) == 0 or any(
            c <= 1.0 for c in self.compression_grid
        ):
            raise ValueError("compression_grid needs values above 1")
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr_db_grid must not be empty")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be positive")
        if not self.band_limit > 0.0:
            raise ValueError("band_limit must be positive")
        if self.n_samples < 8:
            raise ValueError("n_samples must be at least 8")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.noise_convention not in ("equal_variance", "equal_snr"):
            raise ValueError(f"unknown noise convention {self.noise_convention!r}")
        if self.scheme_variant not in ("uniform", "random"):
            raise ValueError(f"unknown scheme variant {self.scheme_variant!r}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        return config_from_dict(ExperimentConfig, doc, "experiment config")

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(cls, doc, label):
    """Build the dataclass cls from a JSON object.

    Rejects a non-object and keys that are not fields of cls.  A missing or
    mistyped field surfaces as the constructor's TypeError, which is raised
    again as a ValueError naming the section.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{label} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ValueError(f"{label}: {exc}") from None


def config_section(cls, value, label):
    """A nested config section given as an instance, a JSON object or null."""
    if isinstance(value, cls):
        return value
    return cls() if value is None else config_from_dict(cls, value, label)


def check_methods(methods) -> tuple:
    methods = tuple(methods)
    if not methods or set(methods) - set(METHODS):
        raise ValueError(
            f"methods must be a nonempty subset of sngem/omp, got {methods}"
        )
    return methods


@dataclass(frozen=True)
class ToneRow:
    tone_idx: int
    f_true: float | None
    a_true: float | None
    phi_true: float | None
    f_hat: float | None
    a_hat: float | None
    phi_hat: float | None
    matched: bool


@dataclass(frozen=True)
class TrialRecord:
    snr_db: float | None
    compression: float
    method: str
    trial_index: int
    rows: tuple
    wall_time: float


@dataclass(frozen=True)
class SummaryRow:
    snr_db: float | None
    compression: float
    method: str
    rmse_f_rel: float | None
    rmse_a_rel: float | None
    rmse_phi_rad: float | None
    miss_rate: float
    crb_rel: float | None
    rmse_over_crb: float | None


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass
class SweepSummary:
    rows: list = field(default_factory=list)

    def by_point(self):
        return {(r.snr_db, r.compression, r.method): r for r in self.rows}


def trial_seed_sequence(
    master_seed: int, snr_db: float | None, compression: float, trial_index: int
) -> np.random.SeedSequence:
    """Splittable per-trial seed from (master_seed, point, trial)."""
    snr_key = 2**63 if snr_db is None else round(snr_db * 1e6) + 2**31
    comp_key = round(compression * 1e6)
    return np.random.SeedSequence(
        master_seed, spawn_key=(snr_key, comp_key, trial_index)
    )


def _build_scheme(cfg: ExperimentConfig, compression: float, seed: int):
    if cfg.scheme_variant == "uniform":
        return SamplingScheme(
            variant="uniform",
            num_samples=cfg.n_samples,
            sample_rate=2.0 * cfg.band_limit / compression,
        )
    return SamplingScheme(
        variant="random",
        num_samples=cfg.n_samples,
        base_rate=2.0 * cfg.band_limit,
        compression=compression,
        seed=seed,
    )


def generate_scenario(
    rng: np.random.Generator, cfg: ExperimentConfig, scheme: SamplingScheme
) -> Scenario:
    """Draw one random scenario for a trial.

    Frequencies are uniform in (0.02, 0.98) * band_limit with pairwise
    separation at least 4/duration.  Under uniform undersampling the same
    separation (and a margin from the fold boundaries at multiples of fs/2)
    is additionally enforced on the aliases, since coincident aliases are a
    resolution failure of any folded acquisition rather than a property of
    the estimators compared here.
    """
    if cfg.fixed_frequencies is not None:
        k = len(cfg.fixed_frequencies)
        freqs = np.array(cfg.fixed_frequencies, dtype=float)
    else:
        k = int(rng.integers(cfg.tone_count_range[0], cfg.tone_count_range[1] + 1))
        min_sep = _SEPARATION_CYCLES / scheme.duration()
        lo = 0.02 * cfg.band_limit
        hi = 0.98 * cfg.band_limit
        fs = scheme.sample_rate if scheme.variant == "uniform" else None
        freqs = None
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = np.sort(rng.uniform(lo, hi, size=k))
            if k > 1 and np.min(np.diff(cand)) < min_sep:
                continue
            if fs is not None:
                aliases = np.sort(alias_frequency(cand, fs))
                if aliases[0] < min_sep or aliases[-1] > fs / 2.0 - min_sep:
                    continue
                if k > 1 and np.min(np.diff(aliases)) < min_sep:
                    continue
            freqs = cand
            break
        if freqs is None:
            raise RuntimeError(
                f"could not place {k} tones with separation {min_sep:.3g} Hz"
            )
    phases = rng.uniform(-math.pi, math.pi, size=k)
    if cfg.unit_amplitudes:
        amps = np.ones(k)
    else:
        amps = rng.uniform(0.5, 2.0, size=k)
    order = np.argsort(freqs)
    tones = tuple(
        ToneParams(amplitude=float(amps[i]), frequency=float(freqs[i]), phase=float(phases[i]))
        for i in order
    )
    return Scenario(tones=tones, band_limit=cfg.band_limit)


def match_tones(f_true, f_hat):
    """Greedy nearest-frequency one-to-one matching.

    Returns a list of estimate indices aligned with f_true (None = miss) plus
    the set of unassigned estimate indices.
    """
    pairs = sorted(
        (abs(ft - fh), i, j)
        for i, ft in enumerate(f_true)
        for j, fh in enumerate(f_hat)
    )
    assigned = [None] * len(f_true)
    used = set()
    for _, i, j in pairs:
        if assigned[i] is None and j not in used:
            assigned[i] = j
            used.add(j)
    spurious = [j for j in range(len(f_hat)) if j not in used]
    return assigned, spurious


def run_method(method, obs, est_cfg, omp_cfg, band_limit, omp_cache=None):
    """Run one method on an observation.

    Both methods return an EstimationResult of EstimatedTones; OMP's is the
    OmpResult subclass, with the pursuit's diagnostics.  omp_cache, when
    given, keeps the last stacked OMP dictionary for reuse by the next call
    with the same sample times, grid, stacking and channel-noise ratio
    sigma_x / sigma_xdot, the only way the noise levels enter the system.
    """
    if method == "sngem":
        return estimate(obs, est_cfg, band_limit)
    if omp_cache is None:
        omp_cache = {}
    key = (
        obs.times.tobytes(),
        band_limit,
        omp_cfg.grid_size,
        omp_cfg.use_derivative_channel,
        _relative_weight(obs.sigma_x, obs.sigma_xdot),
    )
    stacked = omp_cache.get(key)
    if stacked is None:
        base = build_dictionary(obs.times, band_limit, omp_cfg.grid_size)
        stacked = prepare_stacked(
            base, obs.sigma_x, obs.sigma_xdot, omp_cfg.use_derivative_channel
        )
        omp_cache.clear()  # keep at most one stacked system around
        omp_cache[key] = stacked
    return omp_recover(obs, stacked, omp_cfg)


def run_trial(
    cfg: ExperimentConfig,
    snr_db: float | None,
    compression: float,
    trial_index: int,
    omp_cache: dict | None = None,
):
    """Run one trial at one operating point; one TrialRecord per method."""
    if omp_cache is None:
        omp_cache = {}
    root = trial_seed_sequence(cfg.master_seed, snr_db, compression, trial_index)
    scen_ss, scheme_ss, noise_ss = root.spawn(3)
    scheme_seed = int(scheme_ss.generate_state(1, np.uint64)[0])
    scheme = _build_scheme(cfg, compression, scheme_seed)
    scenario = generate_scenario(np.random.default_rng(scen_ss), cfg, scheme)
    obs = synthesize(scenario, scheme)
    noise_seed = int(noise_ss.generate_state(1, np.uint64)[0])
    if snr_db is not None:
        sigma_x = math.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0)))
        noise = NoiseConfig(sigma_x=sigma_x, convention=cfg.noise_convention)
        obs = add_noise(obs, noise, noise_seed)

    k_true = len(scenario.tones)
    f_true = scenario.frequencies
    a_true = scenario.amplitudes
    phi_true = scenario.phases

    est_cfg, omp_cfg = cfg.estimator, cfg.omp
    if cfg.oracle_model_order:
        est_cfg = replace(est_cfg, model_order=k_true)
        omp_cfg = replace(omp_cfg, max_iters=k_true)

    records = []
    for method in cfg.methods:
        start = time.perf_counter()
        try:
            result = run_method(method, obs, est_cfg, omp_cfg, cfg.band_limit, omp_cache)
            tuples = [(t.frequency, t.amplitude, t.phase) for t in result.tones]
        except (EstimationError, ValueError, np.linalg.LinAlgError):
            tuples = []
        wall = time.perf_counter() - start
        assigned, spurious = match_tones(f_true, [tpl[0] for tpl in tuples])
        rows = []
        for i in range(k_true):
            j = assigned[i]
            if j is None:
                rows.append(
                    ToneRow(i, f_true[i], a_true[i], phi_true[i], None, None, None, False)
                )
            else:
                fh, ah, ph = tuples[j]
                rows.append(
                    ToneRow(i, f_true[i], a_true[i], phi_true[i], fh, ah, ph, True)
                )
        for j in spurious:
            fh, ah, ph = tuples[j]
            rows.append(ToneRow(-1, None, None, None, fh, ah, ph, False))
        records.append(
            TrialRecord(
                snr_db=snr_db,
                compression=compression,
                method=method,
                trial_index=trial_index,
                rows=tuple(rows),
                wall_time=wall,
            )
        )
    return records


def _worker_count() -> int:
    env = os.environ.get("SUBNYQ_THREADS", "0")
    try:
        requested = int(env)
    except ValueError:
        raise ValueError(f"SUBNYQ_THREADS must be an integer, got {env!r}")
    if requested < 0:
        raise ValueError("SUBNYQ_THREADS must be nonnegative")
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):  # CPUs this process may run on
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return requested


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS numpy and scipy bundle."""
    controls = []
    for pkg in ("numpy", "scipy"):
        libs = Path(__import__(pkg).__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
    if not controls:
        logging.getLogger(__name__).info("no bundled OpenBLAS found; BLAS threads not capped")
    return tuple(controls)


@contextlib.contextmanager
def _blas_threads(n: int):
    """Run the body with every bundled OpenBLAS at n threads, then restore."""
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(n)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def _run_trials(cfg, snr_db, compression, t_lo, t_hi):
    cache: dict = {}
    out = []
    with _blas_threads(1):
        for t in range(t_lo, t_hi):
            out.extend(run_trial(cfg, snr_db, compression, t, cache))
    return out


def _point_chunk(args):  # pool entry point; the serial path calls _run_trials
    return _run_trials(*args)


def _chunk_spans(trials: int, workers: int) -> list:
    """Contiguous [lo, hi) spans over range(trials), sizes differing by <= 1."""
    k = max(1, min(workers, trials))
    return [(trials * i // k, trials * (i + 1) // k) for i in range(k)]


def _fmt(value) -> str:
    """One CSV cell: empty for None, strings as they are, exact floats."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _trial_csv_rows(record: TrialRecord):
    for row in record.rows:
        yield (
            _fmt(record.snr_db),
            _fmt(record.compression),
            record.method,
            _fmt(record.trial_index),
            _fmt(row.tone_idx),
            _fmt(row.f_true),
            _fmt(row.f_hat),
            _fmt(row.a_true),
            _fmt(row.a_hat),
            _fmt(row.phi_true),
            _fmt(row.phi_hat),
            _fmt(row.matched),
        )


def summarize_point(records, n_samples: int) -> list:
    """Aggregate one operating point's records into SummaryRows per method."""
    by_method: dict = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec)
    rows = []
    for method, recs in by_method.items():
        snr_db = recs[0].snr_db
        compression = recs[0].compression
        ef, ea, ephi = [], [], []
        total_true = 0
        missed = 0
        for rec in recs:
            for row in rec.rows:
                if row.tone_idx < 0:
                    continue
                total_true += 1
                if not row.matched:
                    missed += 1
                    continue
                ef.append((row.f_hat - row.f_true) / row.f_true)
                ea.append((row.a_hat - row.a_true) / row.a_true)
                ephi.append(float(wrap_phase(row.phi_hat - row.phi_true)))
        if ef:
            rmse_f = float(np.sqrt(np.mean(np.square(ef))))
            rmse_a = float(np.sqrt(np.mean(np.square(ea))))
            rmse_phi = float(np.sqrt(np.mean(np.square(ephi))))
        else:
            rmse_f = rmse_a = rmse_phi = None
        if snr_db is None:
            crb_rel = None
            over = None
        else:
            snr_lin = 10.0 ** (snr_db / 10.0)
            crb_rel = math.sqrt(2.0 / (n_samples * snr_lin))
            over = None if rmse_f is None else rmse_f / crb_rel
        rows.append(
            SummaryRow(
                snr_db=snr_db,
                compression=compression,
                method=method,
                rmse_f_rel=rmse_f,
                rmse_a_rel=rmse_a,
                rmse_phi_rad=rmse_phi,
                miss_rate=(missed / total_true) if total_true else 0.0,
                crb_rel=crb_rel,
                rmse_over_crb=over,
            )
        )
    return rows


def run_sweep(
    cfg: ExperimentConfig, out_dir=None, workers: int | None = None
) -> SweepSummary:
    """Run the full sweep; optionally persist CSVs and a config echo.

    Points iterate snr_db (outer) by compression (inner).  With several
    workers, each point is split into balanced contiguous chunks, all run on
    one process pool.  Trials run at one OpenBLAS thread (process-global,
    restored after) and records are folded back in (point, trial, method)
    order, so the outputs depend on neither the worker count nor the
    caller's BLAS threads.  When out_dir is given, trials.csv is appended
    point by point, summary.csv and config_echo.json at the end.
    """
    if workers is None:
        workers = _worker_count()
    points = [
        (snr, comp) for snr in cfg.snr_db_grid for comp in cfg.compression_grid
    ]
    spans = _chunk_spans(cfg.trials_per_point, workers)
    n_chunks = len(points) * len(spans)
    out_path = Path(out_dir) if out_dir is not None else None
    summary = SweepSummary()
    with contextlib.ExitStack() as stack:
        trial_writer = None
        if out_path is not None:
            out_path.mkdir(parents=True, exist_ok=True)
            trial_file = stack.enter_context(open(out_path / "trials.csv", "w", newline=""))
            trial_writer = csv.writer(trial_file)
            trial_writer.writerow(TRIAL_COLUMNS)
        if workers > 1 and n_chunks > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(workers, n_chunks)))
            futures = [
                [pool.submit(_point_chunk, (cfg, snr, comp, lo, hi)) for lo, hi in spans]
                for snr, comp in points
            ]
            stack.callback(pool.shutdown, cancel_futures=True)  # on error, skip queued chunks
            parts = ([r for f in fs for r in f.result()] for fs in futures)
        else:
            parts = (_run_trials(cfg, *point, 0, cfg.trials_per_point) for point in points)
        for records in parts:
            records.sort(
                key=lambda r: (r.trial_index, cfg.methods.index(r.method))
            )
            if trial_writer is not None:
                for rec in records:
                    for row in _trial_csv_rows(rec):
                        trial_writer.writerow(row)
                trial_file.flush()
            summary.rows.extend(summarize_point(records, cfg.n_samples))

    if out_path is not None:
        write_summary_csv(summary, out_path / "summary.csv")
        (out_path / "config_echo.json").write_text(
            json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return summary


def write_summary_csv(summary: SweepSummary, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in summary.rows:
            writer.writerow([_fmt(getattr(r, c)) for c in SUMMARY_COLUMNS])


def _summary_cell(column: str, text: str):
    if column == "method":
        return text
    # compression and miss_rate always hold a value; float("") rejects a blank
    if text == "" and column not in ("compression", "miss_rate"):
        return None
    return float(text)


def read_summary_csv(path) -> SweepSummary:
    summary = SweepSummary()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(SUMMARY_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"summary CSV is missing columns: {sorted(missing)}")
        for rec in reader:
            summary.rows.append(
                SummaryRow(**{c: _summary_cell(c, rec[c]) for c in SUMMARY_COLUMNS})
            )
    return summary


def compare_report(summary: SweepSummary) -> dict:
    """Side-by-side method comparison with an OMP error-floor flag.

    The floor flag marks a method whose rmse_f_rel varies by less than 10%
    across operating points in the top 20 dB of the swept SNR range (per
    compression value).  Returns a JSON-ready dict; see render_compare_text
    for the human-readable form.
    """
    if not summary.rows:
        raise ValueError("summary has no rows to compare")
    methods = sorted({r.method for r in summary.rows})
    by_point = summary.by_point()
    points = sorted(
        {(r.snr_db, r.compression) for r in summary.rows},
        key=lambda p: (p[1], -math.inf if p[0] is None else p[0]),
    )
    table = []
    for snr_db, compression in points:
        entry = {"snr_db": snr_db, "compression": compression}
        for m in methods:
            row = by_point.get((snr_db, compression, m))
            entry[f"rmse_f_rel_{m}"] = None if row is None else row.rmse_f_rel
            entry[f"miss_rate_{m}"] = None if row is None else row.miss_rate
        s_row = by_point.get((snr_db, compression, "sngem"))
        o_row = by_point.get((snr_db, compression, "omp"))
        if (
            s_row is not None
            and o_row is not None
            and s_row.rmse_f_rel
            and o_row.rmse_f_rel
        ):
            entry["rmse_ratio_omp_over_sngem"] = o_row.rmse_f_rel / s_row.rmse_f_rel
        else:
            entry["rmse_ratio_omp_over_sngem"] = None
        entry["crb_rel"] = None if s_row is None else s_row.crb_rel
        table.append(entry)

    snr_values = [r.snr_db for r in summary.rows if r.snr_db is not None]
    flags: dict = {}
    notes = []
    for m in ("sngem", "omp"):
        if m not in methods:
            notes.append(f"method {m} absent from the summary; section omitted")
            continue
        per_comp = {}
        for comp in sorted({r.compression for r in summary.rows}):
            if not snr_values:
                per_comp[repr(comp)] = False
                continue
            top = max(snr_values) - 20.0
            vals = [
                r.rmse_f_rel
                for r in summary.rows
                if r.method == m
                and r.compression == comp
                and r.snr_db is not None
                and r.snr_db >= top
                and r.rmse_f_rel is not None
            ]
            per_comp[repr(comp)] = (
                len(vals) >= 2 and (max(vals) - min(vals)) < 0.1 * min(vals)
            )
        flags[m] = per_comp
    return {"methods": methods, "table": table, "error_floor_flags": flags, "notes": notes}


def render_compare_text(report: dict) -> str:
    lines = []
    methods = report["methods"]
    header = ["snr_db", "compression"]
    for m in methods:
        header.append(f"rmse_f[{m}]")
    header += ["omp/sngem", "crb_rel"]
    lines.append("  ".join(f"{h:>14s}" for h in header))

    def cell(v):
        if v is None:
            return " " * 14
        return f"{v:>14.6g}"

    for entry in report["table"]:
        row = [cell(entry["snr_db"]), cell(entry["compression"])]
        for m in methods:
            row.append(cell(entry[f"rmse_f_rel_{m}"]))
        row.append(cell(entry["rmse_ratio_omp_over_sngem"]))
        row.append(cell(entry["crb_rel"]))
        lines.append("  ".join(row))
    for m, per_comp in report["error_floor_flags"].items():
        flagged = [c for c, v in per_comp.items() if v]
        if flagged:
            lines.append(
                f"error floor: {m} rmse_f_rel varies <10% over the top 20 dB "
                f"at compression {', '.join(flagged)}"
            )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
