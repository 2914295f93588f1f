"""Estimation-variance bounds for dual-channel tone parameters.

Closed forms use the convention SNR = A^2 / (2 sigma^2).  The chain is kept
self-consistent throughout:

    Var(A_hat)        >= 2 sigma^2 / N          (absolute, per channel)
    Var(A_hat) / A^2  >= 1 / (N SNR)            (relative, per channel)
    relvar(A/B ratio) >= 2 / (N SNR)            (sum of two channel relvars)
    Var(f_hat) / f^2  >= 2 / (N SNR)            (ratio-propagated frequency)

The factor-of-two step from one channel to the ratio is the 3.01 dB penalty
reported alongside the bounds.  A full three-parameter Fisher information
matrix over (A, f, phi) is also available numerically; it includes phase
information the amplitude-ratio mechanism ignores, so its frequency bound is
generally far smaller than the ratio-propagated one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .signal_core import (
    TWO_PI,
    NoiseConfig,
    SamplingScheme,
    Scenario,
    ToneParams,
)

CONSTANTS_NOTE = (
    "relative bounds use the self-consistent chain 1/(N*SNR) per channel and "
    "2/(N*SNR) for the ratio and frequency, derived from the absolute "
    "amplitude bound 2*sigma^2/N under SNR = A^2/(2*sigma^2); alternative "
    "constants 4/(N*SNR) and 8/(N*SNR) sometimes quoted for the intermediate "
    "quantities contradict that convention and are not used"
)


class SingularFimError(ValueError):
    """Fisher information matrix is numerically singular."""


@dataclass(frozen=True)
class OperatingPoint:
    """A single (N, SNR, f, A) evaluation point for the closed-form bounds."""

    n_samples: int
    snr: float
    frequency: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if not self.snr > 0.0:
            raise ValueError("snr must be positive")
        if not self.frequency > 0.0:
            raise ValueError("frequency must be positive")
        if not self.amplitude > 0.0:
            raise ValueError("amplitude must be positive")


@dataclass(frozen=True)
class CrbReport:
    """Closed-form bound values at one operating point."""

    n_samples: int
    snr: float
    frequency: float
    amp_var_bound: float
    amp_relvar_bound: float
    ratio_var_bound: float
    ratio_relvar_bound: float
    freq_relvar_single_channel: float
    freq_relvar_bound: float
    penalty_db: float
    constants_note: str = CONSTANTS_NOTE

    def to_dict(self) -> dict:
        return asdict(self)


def amplitude_crb(op: OperatingPoint, sigma: float):
    """Single-channel amplitude bound.

    Parameters
    ----------
    op : OperatingPoint
        Supplies N and the amplitude A.
    sigma : float
        Channel noise standard deviation.

    Returns
    -------
    (absolute, relative) : pair of float
        absolute = 2 sigma^2 / N and relative = absolute / A^2, which equals
        1/(N SNR) when sigma matches the operating point's SNR.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    absolute = 2.0 * sigma**2 / op.n_samples
    return absolute, absolute / op.amplitude**2


def ratio_relvar(relvar_a: float, relvar_b: float) -> float:
    """First-order relative variance of a ratio A/B of independent estimates.

    Delta method: relvar(A/B) = relvar(A) + relvar(B).
    """
    if relvar_a < 0.0 or relvar_b < 0.0:
        raise ValueError("relative variances must be nonnegative")
    return relvar_a + relvar_b


def freq_crb_dual(op: OperatingPoint) -> CrbReport:
    """Closed-form dual-channel bound report at one operating point.

    The single-channel relative amplitude variance is 1/(N SNR); the ratio of
    the two channel amplitudes doubles it, and the frequency estimate
    f = 1/(2 pi R) inherits the ratio's relative variance unchanged.
    """
    n = op.n_samples
    single = 1.0 / (n * op.snr)
    rel = 2.0 * single
    ratio = 1.0 / (TWO_PI * op.frequency)
    sigma_sq = op.amplitude**2 / (2.0 * op.snr)
    return CrbReport(
        n_samples=n,
        snr=op.snr,
        frequency=op.frequency,
        amp_var_bound=2.0 * sigma_sq / n,
        amp_relvar_bound=single,
        ratio_var_bound=rel * ratio**2,
        ratio_relvar_bound=rel,
        freq_relvar_single_channel=single,
        freq_relvar_bound=rel,
        penalty_db=10.0 * math.log10(2.0),
    )


def tone_gradients(tone: ToneParams, times):
    """Analytic partials of both channel means with respect to (A, f, phi).

    Returns
    -------
    (grad_x, grad_xdot) : pair of ndarray, shape (3, N)
        Rows are d/dA, d/df, d/dphi of the clean signal and of its analytic
        derivative at the given sample times.
    """
    t = np.asarray(times, dtype=float)
    a, f, phi = tone.amplitude, tone.frequency, tone.phase
    arg = TWO_PI * f * t + phi
    c, s = np.cos(arg), np.sin(arg)
    grad_x = np.vstack([c, -TWO_PI * t * a * s, -a * s])
    grad_d = np.vstack(
        [
            -TWO_PI * f * s,
            -TWO_PI * a * s - TWO_PI**2 * f * a * t * c,
            -TWO_PI * f * a * c,
        ]
    )
    return grad_x, grad_d


def finite_difference_gradients(tone: ToneParams, times, rel_step: float = 1e-6):
    """Central-difference check values for :func:`tone_gradients`.

    Steps are rel_step relative to each parameter's magnitude, with unit
    scale for the phase.  Useful only where the second-order truncation term
    stays below the comparison tolerance, i.e. moderate f * duration.
    """
    t = np.asarray(times, dtype=float)
    theta = np.array([tone.amplitude, tone.frequency, tone.phase])
    scales = np.array([abs(tone.amplitude), abs(tone.frequency), 1.0])
    grad_x = np.empty((3, len(t)))
    grad_d = np.empty((3, len(t)))

    def both(params):
        a, f, phi = params
        arg = TWO_PI * f * t + phi
        return a * np.cos(arg), -TWO_PI * f * a * np.sin(arg)

    for i in range(3):
        h = rel_step * scales[i]
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        x_hi, d_hi = both(hi)
        x_lo, d_lo = both(lo)
        grad_x[i] = (x_hi - x_lo) / (2.0 * h)
        grad_d[i] = (d_hi - d_lo) / (2.0 * h)
    return grad_x, grad_d


def numeric_fim(scenario: Scenario, scheme: SamplingScheme, noise: NoiseConfig):
    """Exact 3x3 Fisher information for a single tone under both channels.

    I(theta) = sum_n grad mu_x grad mu_x^T / sigma_x^2
             + sum_n grad mu_xdot grad mu_xdot^T / sigma_xdot^2
    over theta = (A, f, phi).  An infinite sigma_xdot removes the derivative
    channel, reducing the matrix to the single-channel case.

    Returns
    -------
    (fim, crb_diag) : (ndarray (3, 3), ndarray (3,))
        The information matrix and the diagonal of its inverse.

    Raises
    ------
    SingularFimError
        If the condition number exceeds 1e12.
    """
    if len(scenario.tones) != 1:
        raise ValueError("numeric_fim is defined for a single-tone scenario")
    if not noise.sigma_x > 0.0:
        raise ValueError("numeric_fim needs sigma_x > 0")
    tone = scenario.tones[0]
    t = scheme.times()
    grad_x, grad_d = tone_gradients(tone, t)
    w_x = 1.0 / noise.sigma_x**2
    sd_d = noise.sigma_xdot(scenario)
    w_d = 0.0 if math.isinf(sd_d) else 1.0 / sd_d**2
    fim = w_x * (grad_x @ grad_x.T) + w_d * (grad_d @ grad_d.T)
    if np.linalg.cond(fim) > 1e12:
        raise SingularFimError(
            f"Fisher information condition number {np.linalg.cond(fim):.3g} "
            "exceeds 1e12"
        )
    crb_diag = np.diag(np.linalg.inv(fim)).copy()
    return fim, crb_diag
