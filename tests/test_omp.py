"""Tests for the grid-dictionary matching-pursuit baseline."""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subnyq
from subnyq.omp import (
    OmpConfig,
    build_dictionary,
    omp_recover,
    prepare_stacked,
)
from subnyq.signal_core import (
    DualChannelObservation,
    NoiseConfig,
    SamplingScheme,
    Scenario,
    ToneParams,
    add_noise,
    multitone,
    multitone_derivative,
    synthesize,
    wrap_phase,
)
from subnyq.sngem import EstimatedTone, EstimationResult

BAND = 1e9
TWO_PI = 2.0 * math.pi


def make_obs(freq_amp_phase, fs, n=512):
    tones = tuple(
        ToneParams(frequency=f, amplitude=a, phase=p) for f, a, p in freq_amp_phase
    )
    scenario = Scenario(tones=tones, band_limit=BAND)
    scheme = SamplingScheme(variant="uniform", num_samples=n, sample_rate=fs)
    return synthesize(scenario, scheme)


def dense_atoms(t, freqs, scale=None):
    """The materialized (stacked, when scale is given) cos/sin atoms."""
    phases = TWO_PI * np.outer(t, freqs)
    cos, sin = np.cos(phases), np.sin(phases)
    if scale is None:
        return cos, sin
    return np.vstack([cos, -scale * sin]), np.vstack([sin, scale * cos])


def dense_scores(cos, sin, resid):
    """Residual energy in each grid point's 2-atom subspace, from the atoms."""
    bc, bs = cos.T @ resid, sin.T @ resid
    cc, cs, ss = (cos * cos).sum(0), (cos * sin).sum(0), (sin * sin).sum(0)
    return (ss * bc**2 - 2.0 * cs * bc * bs + cc * bs**2) / (cc * ss - cs * cs)


def dense_picks(obs, grid_size, iters):
    """Stacked two-channel pursuit on materialized atoms, argmax picks."""
    rel = obs.sigma_x / obs.sigma_xdot
    freqs = np.arange(1, grid_size + 1) * (BAND / grid_size)
    cos, sin = dense_atoms(obs.times, freqs, rel * TWO_PI * freqs)
    y = np.concatenate([obs.x, rel * obs.xdot])
    picks, resid = [], y
    for _ in range(iters):
        scores = dense_scores(cos, sin, resid)
        scores[picks] = -np.inf
        picks.append(int(np.argmax(scores)))
        design = np.column_stack([a[:, g] for g in picks for a in (cos, sin)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
    return tuple(picks)


def assert_transform_matches_dense(t, grid_size, seed):
    d = build_dictionary(t, BAND, grid_size)
    assert d.cosines is None and d.sines is None
    cos, sin = dense_atoms(t, d.grid_frequencies)
    rows = np.random.default_rng(seed).standard_normal((2, len(t)))
    c_r, s_r = d.correlations(rows)
    tol = 1e-9 * len(t) * np.abs(rows).max()
    assert np.abs(c_r - rows @ cos).max() <= tol
    assert np.abs(s_r - rows @ sin).max() <= tol
    # the column sums are the same sums for an all-ones residual
    tol = 1e-9 * len(t)
    assert np.abs(d.col_cc - (cos * cos).sum(0)).max() <= tol
    assert np.abs(d.col_ss - (sin * sin).sum(0)).max() <= tol
    assert np.abs(d.col_cs - (cos * sin).sum(0)).max() <= tol
    return d


def test_grid_frequencies():
    t = np.arange(64) / 2.5e9
    d = build_dictionary(t, BAND, 128)
    assert len(d.grid_frequencies) == 128
    assert d.grid_frequencies[0] == pytest.approx(BAND / 128)
    assert d.grid_frequencies[-1] == pytest.approx(BAND)
    steps = np.diff(d.grid_frequencies)
    assert np.allclose(steps, BAND / 128)


def test_on_grid_exact_recovery():
    # 625 MHz sits exactly on a 128-point grid over 1 GHz
    f = 80 * (BAND / 128)
    obs = make_obs([(f, 1.4, 0.9)], fs=133e6)
    d = build_dictionary(obs.times, BAND, 128)
    result = omp_recover(obs, d, OmpConfig(grid_size=128, max_iters=5))
    assert result.converged
    assert result.iterations == 1
    (tone,) = result.tones
    assert tone.frequency == pytest.approx(f, rel=1e-12)
    assert tone.amplitude == pytest.approx(1.4, rel=1e-9)
    assert abs(wrap_phase(tone.phase - 0.9)) < 1e-9
    assert result.relative_residual < 1e-9


def test_recover_returns_the_estimator_result_types():
    f = 80 * (BAND / 128)
    obs = make_obs([(f, 1.4, 0.9)], fs=133e6, n=64)
    d = build_dictionary(obs.times, BAND, 128)
    result = omp_recover(obs, d, OmpConfig(grid_size=128, max_iters=1))
    assert isinstance(result, EstimationResult)
    assert result.failures == [] and result.warnings == []
    (tone,) = result.tones
    assert type(tone) is EstimatedTone
    bookkeeping = (tone.ratio, tone.f_ratio, tone.fold_index, tone.mirror, tone.alias_frequency)
    assert bookkeeping == (None,) * 5


def test_package_exports_resolve():
    missing = [name for name in subnyq.__all__ if not hasattr(subnyq, name)]
    assert missing == []


def test_signal_channel_only_recovery():
    f = 80 * (BAND / 128)
    obs = make_obs([(f, 1.0, -0.4)], fs=2.5e9, n=256)
    d = build_dictionary(obs.times, BAND, 128)
    cfg = OmpConfig(grid_size=128, max_iters=5, use_derivative_channel=False)
    result = omp_recover(obs, d, cfg)
    (tone,) = result.tones
    assert tone.frequency == pytest.approx(f, rel=1e-12)
    assert tone.amplitude == pytest.approx(1.0, rel=1e-9)


def test_off_grid_error_bounded_when_unaliased():
    # above-Nyquist sampling removes folding, leaving pure grid bias
    grid_step = BAND / 512
    f = 300.4e6  # lands between grid points
    obs = make_obs([(f, 1.0, 0.2)], fs=2.5e9, n=256)
    d = build_dictionary(obs.times, BAND, 512)
    result = omp_recover(obs, d, OmpConfig(grid_size=512, max_iters=1))
    assert abs(result.tones[0].frequency - f) <= grid_step


def test_support_recovery_two_tones():
    step = BAND / 16
    f1, f2 = 4 * step, 11 * step
    obs = make_obs([(f1, 1.0, 0.3), (f2, 0.6, -1.0)], fs=2.5e9, n=256)
    d = build_dictionary(obs.times, BAND, 16)
    result = omp_recover(obs, d, OmpConfig(grid_size=16, max_iters=4))
    freqs = sorted(t.frequency for t in result.tones)
    assert freqs[0] == pytest.approx(f1, rel=1e-12)
    assert freqs[1] == pytest.approx(f2, rel=1e-12)
    assert result.selected_indices == (10, 3) or set(result.selected_indices) == {3, 10}


def test_residual_nonincreasing_and_no_reselection():
    rng = np.random.default_rng(42)
    obs = make_obs(
        [(150e6, 1.0, 0.1), (420e6, 0.8, 1.2), (770e6, 0.5, -2.0)], fs=133e6
    )
    noisy = replace(
        obs,
        x=obs.x + 0.05 * rng.standard_normal(len(obs)),
        xdot=obs.xdot + 0.05 * TWO_PI * 4e8 * rng.standard_normal(len(obs)),
        sigma_x=0.05,
        sigma_xdot=0.05 * TWO_PI * 4e8,
    )
    d = build_dictionary(obs.times, BAND, 256)
    last = math.inf
    for iters in range(1, 7):
        result = omp_recover(noisy, d, OmpConfig(grid_size=256, max_iters=iters))
        assert len(set(result.selected_indices)) == len(result.selected_indices)
        assert result.relative_residual <= last + 1e-12
        last = result.relative_residual


def test_prepared_dictionary_guards():
    f = 80 * (BAND / 128)
    obs = make_obs([(f, 1.0, 0.0)], fs=133e6)
    sigma_x = 0.01
    sigma_d = TWO_PI * f * sigma_x
    obs = replace(obs, sigma_x=sigma_x, sigma_xdot=sigma_d)
    d = build_dictionary(obs.times, BAND, 128)
    cfg = OmpConfig(grid_size=128, max_iters=3)

    stacked = prepare_stacked(d, sigma_x, sigma_d)
    assert stacked.rel_weight == pytest.approx(sigma_x / sigma_d, rel=1e-12)
    result = omp_recover(obs, stacked, cfg)
    assert result.tones[0].frequency == pytest.approx(f, rel=1e-12)

    wrong_ratio = prepare_stacked(d, sigma_x, 3.0 * sigma_d)
    with pytest.raises(ValueError, match="noise ratio"):
        omp_recover(obs, wrong_ratio, cfg)

    single = prepare_stacked(d, sigma_x, sigma_d, use_derivative_channel=False)
    with pytest.raises(ValueError, match="stacking"):
        omp_recover(obs, single, cfg)

    # noiseless channels default to unit relative weight
    assert prepare_stacked(d, 0.0, 0.0).rel_weight == 1.0


def test_validation_errors():
    obs = make_obs([(100e6, 1.0, 0.0)], fs=133e6, n=64)
    with pytest.raises(ValueError):
        build_dictionary(obs.times, BAND, 0)
    d = build_dictionary(obs.times, BAND, 8)
    with pytest.raises(ValueError, match="max_iters"):
        omp_recover(obs, d, OmpConfig(grid_size=8, max_iters=9))
    short = make_obs([(100e6, 1.0, 0.0)], fs=133e6, n=32)
    with pytest.raises(ValueError, match="length"):
        omp_recover(short, d, OmpConfig(grid_size=8, max_iters=2))


def test_sub_nyquist_off_grid_fold_confusion():
    # characterization: at sub-Nyquist rates an off-grid tone's strongest
    # grid atom usually lives on the wrong fold, because atoms from other
    # folds can alias closer to the observed line than the nearest correct
    # candidate does.  This is the structural error floor of the baseline.
    obs = make_obs([(100e6, 1.0, 0.0)], fs=133e6, n=1024)
    d = build_dictionary(obs.times, BAND, 1024)
    result = omp_recover(obs, d, OmpConfig(grid_size=1024, max_iters=1))
    err = abs(result.tones[0].frequency - 100e6)
    assert err > 10.0 * (BAND / 1024)


def test_unconverged_pursuit_warns():
    step = BAND / 16
    obs = make_obs([(4 * step, 1.0, 0.3), (11 * step, 0.6, -1.0)], fs=2.5e9, n=256)
    d = build_dictionary(obs.times, BAND, 16)
    result = omp_recover(obs, d, OmpConfig(grid_size=16, max_iters=1))
    assert not result.converged and result.iterations == 1
    (warning,) = result.warnings
    assert "max_iters=1" in warning
    assert f"{result.relative_residual:.3g}" in warning
    assert omp_recover(obs, d, OmpConfig(grid_size=16, max_iters=2)).warnings == []


def test_single_channel_ties_go_to_the_lowest_alias():
    # at fs = 1e8 and G = 1024, df/fs = 5/512: grid points g, 512-g, 512+g
    # and 1024-g (1-based) span one subspace on the signal channel
    grid = 1024
    obs = make_obs([(700 * (BAND / grid), 1.0, 0.4)], fs=1e8)
    d = build_dictionary(obs.times, BAND, grid)
    cfg = OmpConfig(grid_size=grid, max_iters=1, use_derivative_channel=False)
    result = omp_recover(obs, d, cfg)
    scores = dense_scores(*dense_atoms(obs.times, d.grid_frequencies), obs.x)
    tied = np.flatnonzero(scores >= scores.max() * (1.0 - 1e-9))
    assert list(tied + 1) == [188, 324, 700, 836]
    assert result.selected_indices == (tied[0],)
    assert result.converged


@settings(max_examples=25, deadline=None)
@given(
    fs=st.floats(1e6, 1e10),
    t0=st.floats(1e-9, 1e-6),
    n=st.integers(8, 512),
    grid_size=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniform_transform_matches_dense_atoms(fs, t0, n, grid_size, seed):
    assert_transform_matches_dense(t0 + np.arange(n) / fs, grid_size, seed)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(8, 256),
    compression=st.floats(1.0, 16.0),
    grid_size=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_scheme_transform_matches_dense_atoms(n, compression, grid_size, seed):
    scheme = SamplingScheme(
        variant="random", num_samples=n, base_rate=2 * BAND, compression=compression, seed=seed
    )
    assert_transform_matches_dense(scheme.times(), grid_size, seed)


def test_transform_at_multiples_of_half_the_sample_rate():
    # fs/2 is 8 grid steps: there every sine atom vanishes on the samples
    grid = 128
    d = assert_transform_matches_dense(np.arange(256) / (2 * BAND / 16), grid, 3)
    half_fs = np.arange(7, grid, 8)
    assert np.abs(d.col_ss[half_fs]).max() <= 1e-9 * 256
    assert np.abs(d.correlations(np.ones((1, 256)))[1][0, half_fs]).max() <= 1e-9 * 256


def test_lattice_and_jittered_times_pick_as_materialized_atoms():
    tones = tuple(
        ToneParams(frequency=f, amplitude=a, phase=p)
        for f, a, p in ((150e6, 1.0, 0.1), (420e6, 0.8, 1.2), (770e6, 0.5, -2.0))
    )
    uniform = np.arange(512) / 133e6
    jitter = np.random.default_rng(7).uniform(0.05, 0.45, 512) / 133e6
    noise = NoiseConfig(sigma_x=0.05, reference_frequency=4e8)
    for times, lattice in ((uniform, True), (uniform + jitter, False)):
        clean = DualChannelObservation(
            times, multitone(tones, times), multitone_derivative(tones, times)
        )
        obs = add_noise(clean, noise, seed=11)
        d = build_dictionary(times, BAND, 256)
        assert (d.cosines is None) == lattice
        result = omp_recover(obs, d, OmpConfig(grid_size=256, max_iters=5))
        assert result.selected_indices == dense_picks(obs, 256, 5)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal (its czt) would add a few tenths of a second to every import
    src = Path(subnyq.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import subnyq; "
        "assert 'scipy.signal' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
