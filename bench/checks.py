"""Output checks: the noise-free gate and the read-back of the sweep CSVs.

Every check raises CheckFailed; the benchmark then exits without printing a
result.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict

from subnyq import ExperimentConfig, run_trial

# the acceptance gate's own threshold for noise-free recovery
NOISE_FREE_TOL = 1e-10


class CheckFailed(RuntimeError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def noise_free_gate(seed: int) -> dict:
    """One noise-free uniform trial with 5-15 tones must be recovered exactly."""
    cfg = ExperimentConfig(
        master_seed=seed,
        tone_count_range=(5, 15),
        compression_grid=(20.0,),
        snr_db_grid=(None,),
        trials_per_point=1,
        methods=("sngem",),
    )
    (record,) = run_trial(cfg, None, 20.0, 0)
    true_rows = [r for r in record.rows if r.tone_idx >= 0]
    require(5 <= len(true_rows) <= 15, f"noise-free trial has {len(true_rows)} tones")
    require(
        len(true_rows) == len(record.rows),
        "noise-free trial produced spurious estimates",
    )
    worst = 0.0
    for r in true_rows:
        require(r.matched, f"noise-free trial missed the tone at {r.f_true!r} Hz")
        dphi = (r.phi_hat - r.phi_true + math.pi) % (2.0 * math.pi) - math.pi
        worst = max(
            worst,
            abs(r.f_hat - r.f_true) / r.f_true,
            abs(r.a_hat - r.a_true) / r.a_true,
            abs(dphi),
        )
    require(
        worst < NOISE_FREE_TOL,
        f"noise-free error {worst:.3e} is not below {NOISE_FREE_TOL:g}",
    )
    return {"tones": len(true_rows), "worst_error": worst}


def _opt(cell):
    return None if cell == "" else float(cell)


def sweep_outputs(out_dir, cfg: ExperimentConfig, pts) -> dict:
    """Read trials.csv and summary.csv back and check their shape.

    Every true tone must have exactly one row per method, every (point,
    method) exactly one summary row whose accuracy figures are finite and
    whose miss rate agrees with the trial rows.  Returns the tone counts and
    the per-method frequency errors in units of the bound.
    """
    with open(out_dir / "trials.csv", newline="") as fh:
        trial_rows = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", newline="") as fh:
        summary_rows = list(csv.DictReader(fh))

    point_keys = {(snr, float(comp)) for snr, comp in pts}
    tones = defaultdict(list)  # (snr, comp, trial, method) -> tone indices
    seen = defaultdict(lambda: [0, 0])  # (snr, comp, method) -> [true, missed]
    scaled = defaultdict(list)  # method -> (f_hat - f_true) / (f_true * crb)
    for row in trial_rows:
        key = (_opt(row["snr_db"]), float(row["compression"]))
        require(key in point_keys, f"trials.csv has a row for unknown point {key}")
        require(row["method"] in cfg.methods, f"unknown method {row['method']!r}")
        idx = int(row["tone_idx"])
        if idx < 0:
            continue
        tones[key + (int(row["trial"]), row["method"])].append(idx)
        counts = seen[key + (row["method"],)]
        counts[0] += 1
        if row["matched"] != "1":
            counts[1] += 1
            continue
        f_true, f_hat = float(row["f_true_hz"]), float(row["f_hat_hz"])
        require(math.isfinite(f_hat), f"non-finite estimate in trials.csv: {row}")
        if key[0] is not None:
            crb = math.sqrt(2.0 / (cfg.n_samples * 10.0 ** (key[0] / 10.0)))
            scaled[row["method"]].append((f_hat - f_true) / (f_true * crb))

    for snr, comp in point_keys:
        for trial in range(cfg.trials_per_point):
            per_method = [tones.get((snr, comp, trial, m)) for m in cfg.methods]
            first = per_method[0]
            require(
                first is not None and sorted(first) == list(range(len(first))),
                f"trial {trial} at {(snr, comp)} lacks its true-tone rows",
            )
            require(
                all(t == first for t in per_method),
                f"trial {trial} at {(snr, comp)}: methods disagree on the true tones",
            )

    keys = [(_opt(r["snr_db"]), float(r["compression"]), r["method"]) for r in summary_rows]
    expected = {(s, c, m) for s, c in point_keys for m in cfg.methods}
    require(
        len(keys) == len(expected) and set(keys) == expected,
        f"summary.csv rows {sorted(keys, key=str)} != one per point and method",
    )
    worst = {}
    for row, key in zip(summary_rows, keys):
        total, missed = seen[key]
        require(
            float(row["miss_rate"]) == (missed / total if total else 0.0),
            f"summary miss_rate disagrees with trials.csv at {key}",
        )
        if key[0] is None:
            continue
        for col in ("rmse_f_rel", "rmse_a_rel", "rmse_phi_rad", "crb_rel", "rmse_over_crb"):
            val = _opt(row[col])
            require(
                val is not None and math.isfinite(val),
                f"summary {col} at {key} is not finite: {row[col]!r}",
            )
        worst[key[2]] = max(worst.get(key[2], 0.0), float(row["rmse_over_crb"]))

    attempted = sum(t for t, _ in seen.values())
    missed = sum(m for _, m in seen.values())
    return {
        "true_tones": attempted,
        "missed_tones": missed,
        "scaled_errors": dict(scaled),
        "worst_point_over_crb": worst,
    }


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def estimate_output(result, k_true: int):
    """An estimate() result must hold at most K finite positive frequencies."""
    require(
        len(result.tones) + len(result.failures) <= k_true,
        f"estimate returned {len(result.tones)} tones and "
        f"{len(result.failures)} failures for {k_true} true tones",
    )
    for tone in result.tones:
        require(
            math.isfinite(tone.frequency) and tone.frequency > 0.0,
            f"estimate returned an invalid frequency {tone.frequency!r}",
        )
