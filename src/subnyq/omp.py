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
Grid points whose scores tie within rounding go to the lowest frequency.

The dictionary is never materialized: C^T r - i S^T r is the DTFT of the
residual r at f_g, which :func:`sngem._grid_dtft` (the routine behind the
random path's periodogram) gives for every grid point at once, by FFT when
the sample times lie on a lattice, as both sampling schemes' do, and by a
blocked direct sum otherwise.  The column sums |C|^2, |S|^2 and C.S follow
from the same transform of the sample indicator at 2 f_g.  The derivative
channel's atoms (-s S, s C), s = w * 2*pi*f_g, are folded into the scores in
closed form, and only the selected atoms are ever built.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .signal_core import TWO_PI, DualChannelObservation
from .sngem import EstimatedTone, EstimationResult, _amp_phase, _grid_dtft

_TIE_RTOL = 1e-9  # scores this close to the best count as tied


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
    """(cos, sin) atom pairs on a regular frequency grid, kept as their transform.

    dtft maps residual rows to C^T r - i S^T r (see :func:`sngem._grid_dtft`);
    the column sums are stored.
    """

    sample_times: np.ndarray
    band_limit: float
    grid_frequencies: np.ndarray
    # always None: the atoms are never materialized, but the bench's
    # bench/tracing.py::_observe_stacked still reads both names
    cosines: None
    sines: None
    col_cc: np.ndarray  # (G,) |C|^2
    col_ss: np.ndarray  # (G,) |S|^2
    col_cs: np.ndarray  # (G,) C.S
    dtft: Callable[[np.ndarray], np.ndarray]

    @property
    def grid_size(self) -> int:
        return len(self.grid_frequencies)

    def correlations(self, rows):
        """C^T r and S^T r at every grid point, for each row r: two (rows, G) arrays."""
        dtft = self.dtft(rows)
        return dtft.real, -dtft.imag


def build_dictionary(
    sample_times, band_limit: float, grid_size: int
) -> DftDictionary:
    """The grid dictionary over the given sample times.

    O(N + G) state on and off a sample lattice.  Construction is pure;
    callers running many recoveries over the same (times, band_limit,
    grid_size) should memoize the result themselves.
    """
    t = np.asarray(sample_times, dtype=float)
    if len(t) < 2:
        raise ValueError("need at least two sample times")
    if not band_limit > 0.0:
        raise ValueError("band_limit must be positive")
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    freqs = np.arange(1, grid_size + 1) * (band_limit / grid_size)
    # sum_n exp(-2j*pi*2*f_g*t_n) = sum cos(4 pi f_g t) - i sum sin(4 pi f_g t)
    twice = _grid_dtft(t, 2.0 * freqs)(np.ones((1, len(t))))[0]
    half = 0.5 * len(t)
    return DftDictionary(
        sample_times=t,
        band_limit=float(band_limit),
        grid_frequencies=freqs,
        cosines=None,
        sines=None,
        col_cc=half + 0.5 * twice.real,
        col_ss=half - 0.5 * twice.real,
        col_cs=-0.5 * twice.imag,
        dtft=_grid_dtft(t, freqs),
    )


@dataclass(frozen=True)
class StackedDictionary:
    """Dictionary whitened and stacked across both channels.

    rel_weight is the derivative-channel weight relative to the signal
    channel, sigma_x / sigma_xdot; a common scale drops out of both the
    selection scores and the least-squares solution.  Grid point g's stacked
    atoms are (C; -s_g S) and (S; s_g C), s_g = rel_weight * 2*pi*f_g, so
    only s and the stacked Gram terms are stored.
    """

    base: DftDictionary
    use_derivative_channel: bool
    rel_weight: float
    scale: np.ndarray | None  # (G,) s_g, None for the signal channel alone
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
    """The stacked two-channel system for given channel noise levels."""
    rel = _relative_weight(sigma_x, sigma_xdot)
    cc, ss, cs = dictionary.col_cc, dictionary.col_ss, dictionary.col_cs
    scale = None
    if use_derivative_channel:
        scale = rel * TWO_PI * dictionary.grid_frequencies
        s2 = scale * scale
        cc, ss, cs = cc + s2 * ss, ss + s2 * cc, cs * (1.0 - s2)
    return StackedDictionary(
        base=dictionary,
        use_derivative_channel=use_derivative_channel,
        rel_weight=rel,
        scale=scale,
        gram_cc=cc,
        gram_cs=cs,
        gram_ss=ss,
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
    if stacked.use_derivative_channel:
        (c1, c2), (s1, s2) = stacked.base.correlations(resid.reshape(2, -1))
        bc = c1 - stacked.scale * s2
        bs = s1 + stacked.scale * c2
    else:
        (bc,), (bs,) = stacked.base.correlations(resid[None, :])
    cc, cs, ss = stacked.gram_cc, stacked.gram_cs, stacked.gram_ss
    det = cc * ss - cs * cs
    floor = 1e-12 * np.maximum(cc * ss, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        full = (ss * bc**2 - 2.0 * cs * bc * bs + cc * bs**2) / det
        only_c = np.where(cc > 0.0, bc**2 / cc, 0.0)
        only_s = np.where(ss > 0.0, bs**2 / ss, 0.0)
    scores = np.where(det > floor, full, np.maximum(only_c, only_s))
    return scores


def _atoms(stacked: StackedDictionary, g: int):
    """Grid point g's (cos, sin) columns of the stacked system."""
    base = stacked.base
    phases = TWO_PI * (base.sample_times * base.grid_frequencies[g])
    cos, sin = np.cos(phases), np.sin(phases)
    if not stacked.use_derivative_channel:
        return cos, sin
    s = stacked.scale[g]
    return np.concatenate([cos, -s * sin]), np.concatenate([sin, s * cos])


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
    reported with converged=False, the best-so-far solution and a warning.
    The tones are EstimatedTones, as sngem returns, with only frequency,
    amplitude and phase set.
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
    columns = []
    resid = y
    coef = np.zeros(0)
    rel = 1.0
    converged = False
    for _ in range(cfg.max_iters):
        scores = _block_scores(stacked, resid)
        if selected:
            scores[np.array(selected)] = -np.inf
        best = scores.max()
        if not best > 0.0:
            break
        pick = int(np.argmax(scores >= best - _TIE_RTOL * best))
        selected.append(pick)
        columns.extend(_atoms(stacked, pick))
        design = np.column_stack(columns)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rel = float(np.linalg.norm(resid)) / y_norm
        if rel < cfg.residual_tol:
            converged = True
            break

    warnings = []
    if not converged and len(selected) == cfg.max_iters:
        warnings.append(
            f"pursuit stopped at max_iters={cfg.max_iters} with relative residual "
            f"{rel:.3g} above residual_tol={cfg.residual_tol:.3g}"
        )
    tones = []
    for i, g in enumerate(selected):
        amplitude, phase = _amp_phase(coef[2 * i], coef[2 * i + 1])
        tones.append(EstimatedTone(float(base.grid_frequencies[g]), amplitude, phase))
    tones.sort(key=lambda tone: tone.frequency)
    return OmpResult(
        tones=tones,
        warnings=warnings,
        converged=converged,
        iterations=len(selected),
        relative_residual=rel,
        selected_indices=tuple(selected),
    )
