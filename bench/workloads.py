"""The benchmark's three workloads.

Each workload is a sweep config for ``subnyq.run_sweep`` plus the inputs of
the closed ``subnyq.estimate`` loop.  Everything random comes from the
workload seed, which is passed as ``master_seed``; the program sees only the
configs and observations built here.  See README.md for why each was chosen.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from subnyq import (
    ExperimentConfig,
    NoiseConfig,
    SamplingScheme,
    add_noise,
    generate_scenario,
    synthesize,
    trial_seed_sequence,
)

BAND_LIMIT = 1.0e9
FIG_COMPRESSION = 2.0 * BAND_LIMIT / 133e6  # fs = 133 MS/s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep: dict  # ExperimentConfig fields except master_seed
    parallel: bool  # workers = nproc as `subnyq sweep` defaults, else 1
    estimate_calls: int  # closed-loop subnyq.estimate calls per run
    rounds: int  # sweeps and estimate() calls are spread over this many rounds
    tiny: dict = field(default_factory=dict)  # smaller sweep for smoke tests
    # largest pooled sngem RMS error over the ratio bound a run accepts
    accuracy_ceiling: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="headline_1tone",
            why="paper headline figure: one 100 MHz tone at 133 MS/s, N=1024; "
            "the uniform pencil SVD dominates and the OMP dictionary cache hits",
            sweep=dict(
                tone_count_range=(1, 1),
                fixed_frequencies=(1e8,),
                compression_grid=(FIG_COMPRESSION,),
                snr_db_grid=tuple(float(s) for s in range(10, 51, 5)),
                trials_per_point=4,
                n_samples=1024,
                methods=("sngem", "omp"),
                omp={"grid_size": 1024, "max_iters": 1},
            ),
            parallel=False,
            estimate_calls=60,
            rounds=3,
            tiny=dict(snr_db_grid=(10.0, 50.0), trials_per_point=2),
            # about 1.04 is expected; 2.0 stays clear of the sampling spread
            # of 36 pooled errors, so only a real loss of accuracy trips it
            accuracy_ceiling=2.0,
        ),
        Workload(
            name="multitone_uniform",
            why="default 5-15-tone uniform sweep on the process pool: OMP "
            "dictionary rebuilt every trial, ambiguous folds rejected at 10 dB",
            sweep=dict(
                snr_db_grid=(10.0,),
                compression_grid=(20.0,),
                trials_per_point=51,
            ),
            parallel=True,
            estimate_calls=40,
            rounds=2,
            tiny=dict(
                n_samples=128,
                tone_count_range=(2, 3),
            ),
        ),
        Workload(
            name="random_scheme",
            why="random undersampling, N=256, 3 tones: the uniform pencil is "
            "bypassed and estimate_nonuniform (periodogram, bounded searches) dominates",
            sweep=dict(
                scheme_variant="random",
                n_samples=256,
                tone_count_range=(3, 3),
                compression_grid=(8.0,),
                snr_db_grid=(20.0, 40.0),
                trials_per_point=8,
            ),
            parallel=False,
            estimate_calls=40,
            rounds=3,
            tiny=dict(snr_db_grid=(20.0,), trials_per_point=2),
        ),
    )
}


def config(workload: Workload, seed: int, tiny: bool = False) -> ExperimentConfig:
    doc = dict(workload.sweep, **(workload.tiny if tiny else {}))
    return ExperimentConfig(master_seed=seed, **doc)


def workers(workload: Workload) -> int:
    return (os.cpu_count() or 1) if workload.parallel else 1


def points(cfg: ExperimentConfig):
    """Operating points in run_sweep's order."""
    return [(snr, comp) for snr in cfg.snr_db_grid for comp in cfg.compression_grid]


def estimate_inputs(cfg: ExperimentConfig, count: int):
    """(observation, estimator config) pairs drawn as run_trial draws a trial.

    Trial indices start after the sweep's own, cycling over its points, so
    the loop sees fresh observations of the same kind.
    """
    pts = points(cfg)
    out = []
    for i in range(count):
        snr_db, compression = pts[i % len(pts)]
        root = trial_seed_sequence(
            cfg.master_seed, snr_db, compression, cfg.trials_per_point + i
        )
        scen_ss, scheme_ss, noise_ss = root.spawn(3)
        scheme_seed = int(scheme_ss.generate_state(1, np.uint64)[0])
        if cfg.scheme_variant == "uniform":
            scheme = SamplingScheme(
                variant="uniform",
                num_samples=cfg.n_samples,
                sample_rate=2.0 * cfg.band_limit / compression,
            )
        else:
            scheme = SamplingScheme(
                variant="random",
                num_samples=cfg.n_samples,
                base_rate=2.0 * cfg.band_limit,
                compression=compression,
                seed=scheme_seed,
            )
        scenario = generate_scenario(np.random.default_rng(scen_ss), cfg, scheme)
        obs = synthesize(scenario, scheme)
        noise_seed = int(noise_ss.generate_state(1, np.uint64)[0])
        sigma_x = math.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0)))
        obs = add_noise(
            obs, NoiseConfig(sigma_x=sigma_x, convention=cfg.noise_convention), noise_seed
        )
        est_cfg = replace(cfg.estimator, model_order=len(scenario.tones))
        out.append((obs, est_cfg))
    return out
