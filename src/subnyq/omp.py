"""Grid-based orthogonal matching pursuit baseline.

The dictionary holds paired (cos, sin) atoms on a fixed frequency grid
f_g = g * band_limit / G, g = 1..G.  Recovery selects, per iteration, the
grid frequency whose two-atom subspace captures the most residual energy,
then re-solves the least squares over every selected subspace.  Estimates are
pinned to the grid by construction; the resulting bias is the point of the
baseline and is not refined away.

With uniform sub-Nyquist sampling, atoms at frequencies a multiple of fs
apart are identical on the signal channel, so single-channel selection
cannot tell folds apart.  Stacking the derivative channel (atoms scaled by
2*pi*f_g, each channel whitened by its noise level) breaks that degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_core import TWO_PI, DualChannelObservation
from .sngem import EstimatedTone, EstimationResult, _amp_phase


@dataclass(frozen=True)
class OmpConfig:
    grid_size: int = 1024
    max_iters: int = 10
    residual_tol: float = 1e-9
    use_derivative_channel: bool = True

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.residual_tol < 0.0:
            raise ValueError("residual_tol must be nonnegative")


@dataclass(frozen=True)
class DftDictionary:
    """Sampled (cos, sin) atom pairs on a regular frequency grid."""

    sample_times: np.ndarray
    band_limit: float
    grid_frequencies: np.ndarray
    cosines: np.ndarray  # (N, G), unnormalized
    sines: np.ndarray  # (N, G), unnormalized

    @property
    def grid_size(self) -> int:
        return len(self.grid_frequencies)


def build_dictionary(
    sample_times, band_limit: float, grid_size: int
) -> DftDictionary:
    """Materialize the grid dictionary over the given sample times.

    Construction is pure; callers running many recoveries over the same
    (times, band_limit, grid_size) should memoize the result themselves.
    """
    t = np.asarray(sample_times, dtype=float)
    if len(t) < 2:
        raise ValueError("need at least two sample times")
    if not band_limit > 0.0:
        raise ValueError("band_limit must be positive")
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    freqs = np.arange(1, grid_size + 1) * (band_limit / grid_size)
    phases = TWO_PI * np.outer(t, freqs)
    cosines = np.cos(phases)
    sines = np.sin(phases)
    return DftDictionary(
        sample_times=t,
        band_limit=float(band_limit),
        grid_frequencies=freqs,
        cosines=cosines,
        sines=sines,
    )


@dataclass(frozen=True)
class StackedDictionary:
    """Dictionary expanded to the (optionally whitened, stacked) system.

    rel_weight is the derivative-channel weight relative to the signal
    channel, sigma_x / sigma_xdot; a common scale drops out of both the
    selection scores and the least-squares solution.
    """

    base: DftDictionary
    use_derivative_channel: bool
    rel_weight: float
    cos_cols: np.ndarray  # (M, G)
    sin_cols: np.ndarray  # (M, G)
    gram_cc: np.ndarray
    gram_cs: np.ndarray
    gram_ss: np.ndarray


def _relative_weight(sigma_x: float, sigma_xdot: float) -> float:
    if sigma_x > 0.0 and sigma_xdot > 0.0:
        return sigma_x / sigma_xdot
    return 1.0


def prepare_stacked(
    dictionary: DftDictionary,
    sigma_x: float,
    sigma_xdot: float,
    use_derivative_channel: bool = True,
) -> StackedDictionary:
    """Build the stacked two-channel system for given channel noise levels."""
    rel = _relative_weight(sigma_x, sigma_xdot)
    if use_derivative_channel:
        scale = rel * TWO_PI * dictionary.grid_frequencies
        cos_cols = np.vstack([dictionary.cosines, -scale * dictionary.sines])
        sin_cols = np.vstack([dictionary.sines, scale * dictionary.cosines])
    else:
        cos_cols = dictionary.cosines
        sin_cols = dictionary.sines
    return StackedDictionary(
        base=dictionary,
        use_derivative_channel=use_derivative_channel,
        rel_weight=rel,
        cos_cols=cos_cols,
        sin_cols=sin_cols,
        gram_cc=np.sum(cos_cols * cos_cols, axis=0),
        gram_cs=np.sum(cos_cols * sin_cols, axis=0),
        gram_ss=np.sum(sin_cols * sin_cols, axis=0),
    )


@dataclass
class OmpResult(EstimationResult):
    """The estimator's result type plus the pursuit's diagnostics."""

    converged: bool = False
    iterations: int = 0
    relative_residual: float = math.nan
    selected_indices: tuple = ()


def _block_scores(stacked: StackedDictionary, resid: np.ndarray) -> np.ndarray:
    """Residual energy captured by each grid point's 2-atom subspace."""
    bc = stacked.cos_cols.T @ resid
    bs = stacked.sin_cols.T @ resid
    cc, cs, ss = stacked.gram_cc, stacked.gram_cs, stacked.gram_ss
    det = cc * ss - cs * cs
    floor = 1e-12 * np.maximum(cc * ss, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        full = (ss * bc**2 - 2.0 * cs * bc * bs + cc * bs**2) / det
        only_c = np.where(cc > 0.0, bc**2 / cc, 0.0)
        only_s = np.where(ss > 0.0, bs**2 / ss, 0.0)
    scores = np.where(det > floor, full, np.maximum(only_c, only_s))
    return scores


def omp_recover(
    obs: DualChannelObservation,
    dictionary,
    cfg: OmpConfig,
) -> OmpResult:
    """Block orthogonal matching pursuit on the grid dictionary.

    dictionary may be a DftDictionary or a StackedDictionary prepared via
    :func:`prepare_stacked` (reusable across observations with the same
    channel-noise ratio).  Stops at max_iters selections or once the relative
    residual drops below residual_tol; running out of iterations first is
    reported with converged=False and the best-so-far solution.  The tones
    are EstimatedTones, as sngem returns, with only frequency, amplitude and
    phase set.
    """
    if isinstance(dictionary, StackedDictionary):
        stacked = dictionary
        expected = _relative_weight(obs.sigma_x, obs.sigma_xdot)
        if stacked.use_derivative_channel != cfg.use_derivative_channel:
            raise ValueError("prepared dictionary disagrees with cfg on stacking")
        if abs(stacked.rel_weight - expected) > 1e-9 * max(expected, 1e-300):
            raise ValueError(
                "prepared dictionary was whitened for a different noise ratio"
            )
    else:
        stacked = prepare_stacked(
            dictionary, obs.sigma_x, obs.sigma_xdot, cfg.use_derivative_channel
        )
    base = stacked.base
    if cfg.max_iters > base.grid_size:
        raise ValueError("max_iters cannot exceed the dictionary grid size")
    if len(obs) != len(base.sample_times):
        raise ValueError("observation length does not match the dictionary")

    if cfg.use_derivative_channel:
        y = np.concatenate([obs.x, stacked.rel_weight * obs.xdot])
    else:
        y = obs.x.copy()
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return OmpResult(tones=[], converged=True, iterations=0, relative_residual=0.0)

    selected: list[int] = []
    resid = y
    coef = np.zeros(0)
    rel = 1.0
    converged = False
    for _ in range(cfg.max_iters):
        scores = _block_scores(stacked, resid)
        if selected:
            scores[np.array(selected)] = -np.inf
        pick = int(np.argmax(scores))
        if not scores[pick] > 0.0:
            break
        selected.append(pick)
        design = np.empty((len(y), 2 * len(selected)))
        for i, g in enumerate(selected):
            design[:, 2 * i] = stacked.cos_cols[:, g]
            design[:, 2 * i + 1] = stacked.sin_cols[:, g]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rel = float(np.linalg.norm(resid)) / y_norm
        if rel < cfg.residual_tol:
            converged = True
            break

    tones = []
    for i, g in enumerate(selected):
        amplitude, phase = _amp_phase(coef[2 * i], coef[2 * i + 1])
        tones.append(EstimatedTone(float(base.grid_frequencies[g]), amplitude, phase))
    tones.sort(key=lambda tone: tone.frequency)
    return OmpResult(
        tones=tones,
        converged=converged,
        iterations=len(selected),
        relative_residual=rel,
        selected_indices=tuple(selected),
    )
