"""Dual-channel sub-Nyquist tone estimation.

Uniform undersampling folds every tone onto an alias in [0, fs/2].  The
aliased line spectrum is recovered with a matrix pencil on the signal
channel, then both channels are fitted on the shared aliased support.  The
derivative channel's amplitude is 2*pi*f times the signal channel's, so the
per-tone amplitude ratio yields the unfolded frequency directly; the alias
only has to select the correct fold candidate, which it does exactly.

The reported frequency is the ratio estimate.  The fold candidate
fold_index*fs +/- alias is an alternative fine estimate whose error is set by
the pencil rather than by the amplitude ratio; it is kept in the output
(fold_index, mirror, alias_frequency) and used as the starting point for the
optional Gauss-Newton refinement, which is off by default because it changes
the estimator's error law from the amplitude-ratio one to the phase-slope
one.

Random undersampling does not fold coherently, so that path estimates
frequencies directly: greedy peak picks on a nonuniform periodogram of the
residual, each followed by a joint two-channel Gauss-Newton fit of all tones
found so far.  There the amplitude ratio serves as a consistency diagnostic.
On a sample lattice (random undersampling of a base grid) the periodogram is
one FFT; other times fall back to a direct sum.

Both paths share one variable-projection Gauss-Newton routine
(:func:`_gauss_newton`): the linear cos/sin coefficients are least-squares
fits at every iterate, and all frequencies step together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .signal_core import (
    TWO_PI,
    DualChannelObservation,
    uniform_sample_rate,
    wrap_phase,
)

# floor for treating the derivative-channel amplitude as usable in a ratio
_RATIO_FLOOR = 1e3 * np.finfo(float).eps
# minimum singular-value gap accepted as a model-order boundary
_ORDER_GAP = 3.0
# variable-projection Gauss-Newton: step budget and relative stop tolerance
_GN_STEPS = 20
_GN_RTOL = 1e-13
# cap on automatically extracted tones in the nonuniform path
_MAX_AUTO_TONES = 64
# randomized range finder for the leading Hankel subspace (Halko, Martinsson
# & Tropp, SIAM Rev. 2011): extra test vectors beyond 2K, which with one power
# step hold the subspace against a flat noise spectrum, and a fixed seed so
# that reruns are byte-identical
_RANGE_OVERSAMPLE = 8
_RANGE_SEED = 20110217
# the FFT periodogram scatters the residual into M = 4*duration/step slots;
# past this many slots per grid frequency the direct sum is cheaper
_FFT_SLOTS_PER_FREQ = 16
_LATTICE_TOL = 1e-9  # largest off-integer position read as rounding
_DIRECT_BLOCK = 2048  # grid frequencies per block of the direct sum


class EstimationError(RuntimeError):
    """Base class for estimator failures."""


class OrderSelectionError(EstimationError):
    """No usable singular-value gap for automatic model-order selection."""


class CollisionError(EstimationError):
    """Aliased components are rank deficient (e.g. two tones share an alias)."""


class DegenerateRatioError(EstimationError):
    """Fitted amplitudes are too small or inconsistent for a ratio."""


class AmbiguousFoldError(EstimationError):
    """Two fold candidates are both compatible with the coarse estimate."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the sub-Nyquist estimator.

    model_order: number of real tones K, or None for automatic selection
    from the singular-value gap.
    pencil_ratio: Hankel row count as a fraction of N (uniform path).
    sv_threshold: relative singular-value cutoff, 1e-8 suits noiseless data;
    with noise the automatic order relies on the dominant gap instead.
    refine_iters: uniform path only, the number of joint Gauss-Newton steps
    on all frequencies after the initial estimate.  Left at 0, the reported
    frequency follows the amplitude-ratio error law; turning it on re-anchors
    the estimate on the fold candidate and drives the error far below that
    law.  The random path runs Gauss-Newton to convergence regardless.
    """

    model_order: int | None = None
    pencil_ratio: float = 1.0 / 3.0
    sv_threshold: float = 1e-8
    refine_iters: int = 0

    def __post_init__(self):
        if self.model_order is not None and self.model_order < 1:
            raise ValueError("model_order must be a positive integer or None")
        if not 0.0 < self.pencil_ratio < 1.0:
            raise ValueError("pencil_ratio must lie in (0, 1)")
        if not 0.0 < self.sv_threshold < 1.0:
            raise ValueError("sv_threshold must lie in (0, 1)")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")


@dataclass(frozen=True)
class AliasedComponent:
    """One aliased line fitted on both channels (phases in the local time base)."""

    alias_frequency: float
    amp_x: float
    amp_xdot: float
    phase_x: float
    phase_xdot: float


@dataclass(frozen=True)
class EstimatedTone:
    """One tone from either method; the grid pursuit has no ratio or fold (None)."""

    frequency: float
    amplitude: float
    phase: float
    ratio: float | None = None
    f_ratio: float | None = None
    fold_index: int | None = None
    mirror: bool | None = None
    alias_frequency: float | None = None


@dataclass(frozen=True)
class ToneFailure:
    alias_frequency: float
    reason: str


@dataclass
class EstimationResult:
    """Successful tones plus individually reported per-tone failures."""

    tones: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def alias_frequency(frequency, sample_rate: float):
    """Alias in [0, fs/2] of a frequency, or of each in an array, under uniform sampling."""
    return abs(frequency - sample_rate * np.round(frequency / sample_rate))


def _amp_phase(a: float, b: float):
    # a*cos(w t) + b*sin(w t) = amp*cos(w t + phase)
    return math.hypot(a, b), math.atan2(-b, a)


def _sinusoid_design(freqs, tau):
    cols = []
    for f in freqs:
        arg = TWO_PI * f * tau
        cols.append(np.cos(arg))
        cols.append(np.sin(arg))
    return np.column_stack(cols)


def _auto_order(s, sv_threshold):
    significant = int(np.sum(s >= sv_threshold * s[0]))
    limit = min(significant, len(s) - 1)
    if limit < 2:
        raise OrderSelectionError("no significant singular values above threshold")
    best_rank, best_gap = 0, 0.0
    for r in range(2, limit + 1, 2):
        gap = s[r - 1] / s[r]
        if gap > best_gap:
            best_rank, best_gap = r, gap
    if best_gap < _ORDER_GAP:
        raise OrderSelectionError(
            f"largest singular-value gap {best_gap:.3g} below {_ORDER_GAP}"
        )
    return best_rank // 2


def _leading_subspace(hank, rank):
    """Leading left singular vectors and values of hank, from a random sketch.

    Returns (u, s) with rank + _RANGE_OVERSAMPLE columns and values (capped
    at min(hank.shape)), in decreasing order like a truncated SVD.  One power
    step in three Hankel products gives hank ~ q r z^T, so the SVD of the
    small square r yields the values and, through q, the vectors.  Every
    product is re-orthonormalised so that values far below the largest
    survive for the collision test; hank hank^T would square their ratio.
    """
    width = min(rank + _RANGE_OVERSAMPLE, *hank.shape)
    omega = np.random.default_rng(_RANGE_SEED).standard_normal((hank.shape[1], width))
    q, _ = np.linalg.qr(hank @ omega)
    z, _ = np.linalg.qr(hank.T @ q)
    q, r = np.linalg.qr(hank @ z)
    u_small, s, _ = scipy.linalg.svd(r)
    return q @ u_small, s


def estimate_aliased_spectrum(obs: DualChannelObservation, cfg: EstimatorConfig):
    """Recover the aliased line spectrum from a uniformly sampled observation.

    Builds the Hankel matrix of the signal channel with
    L = round(pencil_ratio * N) rows and takes its leading 2K left singular
    vectors, solves the shift-invariance pencil on them as a generalized
    eigenvalue problem for the unit-circle roots, merges conjugate pairs into
    K alias frequencies, and fits both channels on the shared {cos, sin}
    support in one least-squares solve.

    With a known model order K the pencil reads nothing beyond those 2K
    vectors, so they come from a seeded one-power-step range finder
    (:func:`_leading_subspace`) at a small fraction of a full SVD's cost; the
    fixed seed keeps reruns byte-identical.  Automatic order selection looks
    for a gap anywhere in the singular-value spectrum, so it takes the full
    SVD.

    Returns a list of AliasedComponent sorted by alias frequency.

    Raises
    ------
    ValueError
        Non-uniform sampling or an infeasible pencil size.
    CollisionError
        Rank deficiency, e.g. two tones folding onto the same alias.
    OrderSelectionError
        Automatic order requested but no usable singular-value gap.
    """
    fs = uniform_sample_rate(obs.times)
    tau = obs.times - obs.times[0]
    x = obs.x
    n = len(x)
    rows = int(round(cfg.pencil_ratio * n))
    rows = min(max(rows, 2), n - 1)
    cols = n - rows + 1

    hank = scipy.linalg.hankel(x[:rows], x[rows - 1 :])

    if cfg.model_order is not None:
        k = cfg.model_order
        if n < 4 * k + 2:
            raise ValueError(f"need at least {4 * k + 2} samples for {k} tones")
        if 2 * k + 1 > rows or 2 * k > cols - 1:
            raise ValueError(
                f"pencil_ratio {cfg.pencil_ratio} too small for model order {k}"
            )
        u, s = _leading_subspace(hank, 2 * k)
        if s[2 * k - 1] < cfg.sv_threshold * s[0]:
            raise CollisionError(
                f"rank below 2K = {2 * k}: coincident aliases or missing tones"
            )
    else:
        u, s, _ = scipy.linalg.svd(hank, full_matrices=False)
        k = _auto_order(s, cfg.sv_threshold)

    sub = u[:, : 2 * k]
    lam = scipy.linalg.eigvals(sub[:-1].T @ sub[1:], sub[:-1].T @ sub[:-1])
    aliases = np.abs(np.angle(lam)) * fs / TWO_PI
    aliases = np.sort(aliases)
    # conjugate pairs carry bit-identical |angle|; merge them (and anything
    # closer than numerical resolution, which real distinct tones never are)
    merged = [aliases[0]]
    for f_a in aliases[1:]:
        if f_a - merged[-1] > 1e-9 * fs:
            merged.append(f_a)
    if len(merged) < k:
        raise CollisionError(
            f"{len(merged)} distinct aliases for model order {k}: fold collision"
        )
    merged = np.array(merged[:k])

    design = _sinusoid_design(merged, tau)
    coefs, *_ = np.linalg.lstsq(design, np.column_stack([x, obs.xdot]), rcond=None)
    coef_x, coef_d = coefs.T

    comps = []
    for i, f_a in enumerate(merged):
        amp_x, psi_x = _amp_phase(coef_x[2 * i], coef_x[2 * i + 1])
        amp_d, psi_d = _amp_phase(coef_d[2 * i], coef_d[2 * i + 1])
        comps.append(
            AliasedComponent(
                alias_frequency=float(f_a),
                amp_x=amp_x,
                amp_xdot=amp_d,
                phase_x=psi_x,
                phase_xdot=psi_d,
            )
        )
    return comps


def _amplitude_ratio(amp_x: float, amp_xdot: float):
    if amp_x <= 0.0 or amp_xdot < _RATIO_FLOOR * amp_x:
        raise DegenerateRatioError(
            f"amplitudes ({amp_x:.3g}, {amp_xdot:.3g}) unusable for a ratio"
        )
    ratio = amp_x / amp_xdot
    return ratio, 1.0 / (TWO_PI * ratio)


def ratio_frequency(comp: AliasedComponent):
    """Frequency from the per-tone amplitude ratio.

    ratio = amp_x / amp_xdot estimates R = 1/(2 pi f), so
    f_ratio = amp_xdot / (2 pi amp_x).

    Returns (ratio, f_ratio).  Raises DegenerateRatioError when the
    derivative-channel amplitude is below the numerical floor.
    """
    return _amplitude_ratio(comp.amp_x, comp.amp_xdot)


def fold_candidates(alias: float, sample_rate: float, band_limit: float):
    """All frequencies in (0, band_limit] consistent with an alias.

    Returns a list of (frequency, fold_index, mirror) sorted by frequency,
    where frequency = fold_index*fs + alias (mirror False) or
    fold_index*fs - alias (mirror True).
    """
    if not 0.0 <= alias <= sample_rate / 2.0 * (1.0 + 1e-12):
        raise ValueError(f"alias {alias:.6g} outside [0, fs/2]")
    # where a mirrored and an unmirrored candidate coincide (alias 0 or
    # fs/2), the first one found, which is unmirrored, is kept
    cands = {}
    m = 0
    while m * sample_rate - alias <= band_limit:
        for f, mirror in ((m * sample_rate + alias, False), (m * sample_rate - alias, True)):
            if 0.0 < f <= band_limit:
                cands.setdefault(f, (f, m, mirror))
        m += 1
    return sorted(cands.values())


def unfold(
    f_ratio: float,
    alias: float,
    sample_rate: float,
    band_limit: float,
    sigma_coarse: float | None = None,
):
    """Select the fold candidate nearest the coarse ratio estimate.

    Ties break toward the smaller frequency.  When sigma_coarse is given and
    the two nearest candidates both lie within its 3-sigma band, the fold is
    declared ambiguous instead of guessed.

    Returns (frequency, fold_index, mirror) with frequency exactly equal to
    fold_index*fs +/- alias.
    """
    cands = fold_candidates(alias, sample_rate, band_limit)
    if not cands:
        raise ValueError("no fold candidate inside the band")
    ranked = sorted(cands, key=lambda c: (abs(c[0] - f_ratio), c[0]))
    if sigma_coarse is not None and len(ranked) >= 2:
        if abs(ranked[1][0] - f_ratio) < 3.0 * sigma_coarse:
            raise AmbiguousFoldError(
                f"candidates {ranked[0][0]:.6g} and {ranked[1][0]:.6g} both "
                f"within 3 sigma ({3 * sigma_coarse:.3g}) of {f_ratio:.6g}"
            )
    return ranked[0]


def _channels(obs: DualChannelObservation):
    """Both channels as columns, and their least-squares weights.

    A noisy channel is weighted by 1/sigma and one with infinite noise by 0.
    A noise-free channel is weighted by 1/rms: the derivative channel is
    2*pi*f times the signal channel, and equal weights would let its
    high-frequency tones drown the low-frequency ones.
    """
    targets = np.column_stack([obs.x, obs.xdot])
    weights = []
    for y, sigma in zip(targets.T, (obs.sigma_x, obs.sigma_xdot)):
        if sigma == 0.0:
            sigma = math.sqrt(float(np.mean(y * y))) or 1.0
        weights.append(1.0 / sigma)
    return targets, np.array(weights)


def _ratio_rel_sigma(obs: DualChannelObservation, amp_x: float, amp_xdot: float):
    """Relative standard deviation of the amplitude-ratio frequency.

    sqrt(inv_nsnr), the sum of the two channels' 2/(N SNR) terms; None when
    either channel is noiseless or has infinite noise.
    """
    if not (0.0 < obs.sigma_x < math.inf and 0.0 < obs.sigma_xdot < math.inf):
        return None
    return math.sqrt(
        (2.0 * obs.sigma_x**2 / amp_x**2 + 2.0 * obs.sigma_xdot**2 / amp_xdot**2)
        / len(obs)
    )


def _gauss_newton(freqs, tau, targets, weights, max_step, band_limit, steps=_GN_STEPS):
    """Variable-projection Gauss-Newton on all tone frequencies at once.

    targets holds one channel per column and weights one weight per channel.
    At every iterate each channel's cos/sin coefficients are its least-squares
    fit on the current design (Golub & Pereyra, SIAM J. Numer. Anal. 1973),
    and the Jacobian is each channel's d(model)/df with the design's span
    projected out (Kaufman, BIT 1975).  A step is scaled so that no frequency
    moves more than max_step; one that leaves (0, band_limit] or raises the
    weighted cost is refused, which ends the iteration.

    Returns (freqs, coefs, resid) at the last accepted iterate: coefs has a
    cos and a sin row per tone and one column per channel.
    """

    def fit(f):
        design = _sinusoid_design(f, tau)
        coefs, *_ = np.linalg.lstsq(design, targets, rcond=None)
        resid = targets - design @ coefs
        return design, coefs, resid, float(np.sum((resid * weights) ** 2))

    freqs = np.asarray(freqs, dtype=float)
    design, coefs, resid, cost = fit(freqs)
    for _ in range(steps):
        # d(a cos + b sin)/df = 2 pi tau (b cos - a sin), per sample, tone
        # and channel
        dmodel = TWO_PI * tau[:, None, None] * (
            design[:, 0::2, None] * coefs[1::2] - design[:, 1::2, None] * coefs[0::2]
        )
        flat = dmodel.reshape(len(tau), -1)
        flat = flat - design @ np.linalg.lstsq(design, flat, rcond=None)[0]
        jac = (flat.reshape(dmodel.shape) * weights).transpose(2, 0, 1)
        step, *_ = np.linalg.lstsq(
            jac.reshape(-1, len(freqs)), (resid * weights).T.ravel(), rcond=None
        )
        step *= max_step / max(max_step, float(np.abs(step).max()))
        trial = freqs + step
        if trial.min() <= 0.0 or trial.max() > band_limit:
            break
        attempt = fit(trial)
        if attempt[3] > cost:
            break
        freqs = trial
        design, coefs, resid, cost = attempt
        if np.max(np.abs(step) / freqs) < _GN_RTOL:
            break
    return freqs, coefs, resid


def estimate(
    obs: DualChannelObservation, cfg: EstimatorConfig, band_limit: float
) -> EstimationResult:
    """Full sub-Nyquist estimate of all tones in the observation.

    Uniformly sampled observations go through the aliased pipeline: pencil,
    shared-support fits, per-tone amplitude ratio, fold selection.  Anything
    else is handled by :func:`estimate_nonuniform`.

    Per-tone failures (degenerate ratios, ambiguous folds) are collected in
    the result instead of aborting the remaining tones.
    """
    try:
        fs = uniform_sample_rate(obs.times)
    except ValueError:
        return estimate_nonuniform(obs, cfg, band_limit)

    t0 = float(obs.times[0])
    comps = estimate_aliased_spectrum(obs, cfg)
    result = EstimationResult()
    # refinement starts from the fold candidates, not the ratio estimates
    fold_freqs = []
    for comp in comps:
        try:
            ratio, f_ratio = ratio_frequency(comp)
        except DegenerateRatioError as exc:
            result.failures.append(ToneFailure(comp.alias_frequency, str(exc)))
            continue
        rel_sigma = _ratio_rel_sigma(obs, comp.amp_x, comp.amp_xdot)
        sigma_coarse = None if rel_sigma is None else f_ratio * rel_sigma
        try:
            fold_f, fold_index, mirror = unfold(
                f_ratio, comp.alias_frequency, fs, band_limit, sigma_coarse
            )
        except (AmbiguousFoldError, ValueError) as exc:
            result.failures.append(ToneFailure(comp.alias_frequency, str(exc)))
            continue
        # local alias phase is +/- the tone phase at the window start,
        # with the sign set by the fold mirror
        psi = comp.phase_x if not mirror else -comp.phase_x
        phase = float(wrap_phase(psi - TWO_PI * fold_f * t0))
        fold_freqs.append(fold_f)
        result.tones.append(
            EstimatedTone(
                frequency=f_ratio,
                amplitude=comp.amp_x,
                phase=phase,
                ratio=ratio,
                f_ratio=f_ratio,
                fold_index=fold_index,
                mirror=mirror,
                alias_frequency=comp.alias_frequency,
            )
        )

    if cfg.refine_iters > 0 and result.tones:
        tau = obs.times - t0
        freqs, coefs, _ = _gauss_newton(
            fold_freqs,
            tau,
            *_channels(obs),
            1.0 / (4.0 * tau[-1]),
            band_limit,
            steps=cfg.refine_iters,
        )
        for i, f_hat in enumerate(freqs):
            amp, psi = _amp_phase(coefs[2 * i, 0], coefs[2 * i + 1, 0])
            result.tones[i] = replace(
                result.tones[i],
                frequency=float(f_hat),
                amplitude=amp,
                phase=float(wrap_phase(psi - TWO_PI * f_hat * t0)),
            )

    result.tones.sort(key=lambda tone: tone.frequency)
    return result


def _sample_lattice(tau, max_slots):
    """Integer tau/step on the coarsest lattice of <= max_slots steps, or None."""
    gaps = np.diff(tau)
    if not gaps.min() > 0.0:
        return None
    # the step divides the smallest gap: try gap/1, gap/2, ... at once, and
    # keep the first that puts every time within rounding of a lattice point
    k = np.arange(1, int(max_slots * gaps.min() / tau[-1]) + 1)
    slots = np.outer(np.rint(k * (tau[-1] / gaps.min())) / tau[-1], tau)
    fits = np.abs(slots - np.rint(slots)).max(axis=1) <= _LATTICE_TOL
    return np.rint(slots[np.argmax(fits)]).astype(np.intp) if fits.any() else None


def _nonuniform_correlation(resid, tau, freqs):
    """|sum_n resid_n exp(-2j*pi*f*tau_n)|^2 on the grid freqs = g/(4*tau[-1])."""
    pos = _sample_lattice(tau, _FFT_SLOTS_PER_FREQ * len(freqs) / 4)
    if pos is not None:
        # grid point g is DFT bin g mod M, mirrored above M/2 (real input)
        m = 4 * int(pos[-1])
        g = np.rint(freqs * (4.0 * tau[-1])).astype(np.int64) % m
        scattered = np.zeros(m)
        scattered[pos] = resid
        return np.abs(np.fft.rfft(scattered)[np.minimum(g, m - g)]) ** 2
    out = np.empty(len(freqs))
    for start in range(0, len(freqs), _DIRECT_BLOCK):
        f_blk = freqs[start : start + _DIRECT_BLOCK]
        phases = np.exp(-1j * TWO_PI * np.outer(f_blk, tau))
        out[start : start + _DIRECT_BLOCK] = np.abs(phases @ resid) ** 2
    return out


def estimate_nonuniform(
    obs: DualChannelObservation, cfg: EstimatorConfig, band_limit: float
) -> EstimationResult:
    """Direct multi-tone estimation from randomly undersampled data.

    Greedy picks: (1) nonuniform periodogram of the signal channel's
    residual on a grid of step 1/(4*duration), one FFT on the sample lattice
    inferred from the times or a direct sum when they lie on none, (2) joint
    Gauss-Newton on the tones found so far plus the peak, fitted on both
    channels, (3) the residual of that fit, repeated for K tones (or until the
    peak falls below the residual noise floor, which is flagged; with a known
    K on noise-free data every peak is taken).

    No folding is involved, so frequencies are direct; the amplitude ratio is
    reported per tone as a consistency diagnostic.
    """
    t = obs.times
    tau = t - t[0]
    duration = float(tau[-1])
    if duration <= 0.0:
        raise ValueError("observation window has zero duration")
    grid_step = 1.0 / (4.0 * duration)
    freqs = np.arange(grid_step, band_limit + grid_step / 2, grid_step)
    if len(freqs) == 0:
        raise ValueError("empty frequency grid: band limit below grid spacing")

    targets, weights = _channels(obs)

    k_target = cfg.model_order if cfg.model_order is not None else _MAX_AUTO_TONES
    result = EstimationResult()
    found = np.zeros(0)
    resid = targets
    # a noise-free residual of a known order holds only unfitted tones
    floor = cfg.model_order is None or obs.sigma_x > 0.0
    for k in range(k_target):
        power = _nonuniform_correlation(resid[:, 0], tau, freqs)
        peak = int(np.argmax(power))
        median = float(np.median(power))
        threshold = (median / math.log(2.0)) * (math.log(len(freqs)) + 4.0)
        if power[peak] == 0.0 or (floor and power[peak] <= threshold):
            if cfg.model_order is not None:
                result.warnings.append(
                    f"stopped after {k} of {cfg.model_order} tones: "
                    "periodogram peak below the residual noise floor"
                )
            break
        found, coefs, resid = _gauss_newton(
            np.append(found, freqs[peak]), tau, targets, weights, grid_step, band_limit
        )

    for i, f_hat in enumerate(map(float, found)):
        amp_x, psi_x = _amp_phase(coefs[2 * i, 0], coefs[2 * i + 1, 0])
        amp_d, _ = _amp_phase(coefs[2 * i, 1], coefs[2 * i + 1, 1])
        phase = float(wrap_phase(psi_x - TWO_PI * f_hat * t[0]))
        try:
            ratio, f_ratio = _amplitude_ratio(amp_x, amp_d)
        except DegenerateRatioError:
            ratio = f_ratio = math.nan
        rel_sigma = _ratio_rel_sigma(obs, amp_x, amp_d) if math.isfinite(f_ratio) else None
        if rel_sigma is not None:
            band = 3.0 * f_ratio * rel_sigma
            if abs(f_ratio - f_hat) > band:
                result.warnings.append(
                    f"tone at {f_hat:.6g} Hz: ratio check {f_ratio:.6g} Hz is "
                    f"outside the 3 sigma band {band:.3g}"
                )
        result.tones.append(
            EstimatedTone(
                frequency=f_hat,
                amplitude=amp_x,
                phase=phase,
                ratio=ratio,
                f_ratio=f_ratio,
                fold_index=0,
                mirror=False,
                alias_frequency=None,
            )
        )

    result.tones.sort(key=lambda tone: tone.frequency)
    return result
