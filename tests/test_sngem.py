"""Tests for the dual-channel amplitude-ratio estimator."""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import subnyq
from subnyq.experiments import ExperimentConfig, generate_scenario
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
from subnyq.sngem import (
    AliasedComponent,
    AmbiguousFoldError,
    CollisionError,
    DegenerateRatioError,
    EstimatorConfig,
    OrderSelectionError,
    alias_frequency,
    estimate,
    estimate_aliased_spectrum,
    estimate_nonuniform,
    fold_candidates,
    ratio_frequency,
    unfold,
)
from subnyq.sngem import (
    _LATTICE_SLOTS_PER_POINT,
    _channels,
    _gauss_newton,
    _grid_dtft,
    _leading_subspace,
    _sample_lattice,
)

FS = 133e6
BAND = 1e9
TWO_PI = 2.0 * math.pi


def uniform_obs(tones, n=1024, fs=FS):
    scenario = Scenario(tones=tuple(tones), band_limit=BAND)
    scheme = SamplingScheme(variant="uniform", num_samples=n, sample_rate=fs)
    return synthesize(scenario, scheme)


def random_times(n=256, compression=8.0, seed=11, base_rate=2e9):
    return SamplingScheme(
        variant="random",
        num_samples=n,
        base_rate=base_rate,
        compression=compression,
        seed=seed,
    ).times()


def observe(tones, times):
    return DualChannelObservation(
        times=times,
        x=multitone(tones, times),
        xdot=multitone_derivative(tones, times),
    )


def periodogram_grid(times):
    # the search grid of estimate_nonuniform
    tau = times - times[0]
    step = 1.0 / (4.0 * tau[-1])
    return tau, np.arange(step, BAND + step / 2, step)


def on_lattice(tau, freqs):
    cap = _LATTICE_SLOTS_PER_POINT * (len(tau) + len(freqs))
    return _sample_lattice(tau, cap) is not None


def periodogram(resid, tau, freqs):
    # the periodogram of estimate_nonuniform
    return np.abs(_grid_dtft(tau, freqs)(resid[None, :])[0]) ** 2


def direct_power(resid, tau, freqs):
    # reference: one complex exponential per (frequency, sample) pair
    return np.abs(np.exp(-1j * TWO_PI * np.outer(freqs, tau)) @ resid) ** 2


def test_alias_frequency_examples():
    assert alias_frequency(100e6, FS) == pytest.approx(33e6)
    assert alias_frequency(166e6, FS) == pytest.approx(33e6)
    assert alias_frequency(33e6, FS) == pytest.approx(33e6)
    assert alias_frequency(133e6, FS) == pytest.approx(0.0, abs=1e-3)
    # band edge maps onto itself
    assert alias_frequency(66.5e6, FS) == pytest.approx(66.5e6)


def test_fold_candidates_cover_band():
    cands = fold_candidates(33e6, FS, BAND)
    freqs = [f for f, _, _ in cands]
    assert freqs == sorted(freqs)
    assert all(0.0 < f <= BAND for f in freqs)
    # each candidate reconstructs exactly from its bookkeeping
    for f, m, mirror in cands:
        assert f == m * FS + (-33e6 if mirror else 33e6)
    assert (33e6, 0, False) in cands
    assert (100e6, 1, True) in cands
    assert (166e6, 1, False) in cands
    # the nearest candidate above the band limit is excluded
    assert max(freqs) <= BAND
    assert max(freqs) > BAND - FS


@given(
    fs=st.floats(1e3, 1e9),
    band_ratio=st.floats(0.5, 40.0),
    alias_frac=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
)
def test_fold_candidates_unique_and_exact(fs, band_ratio, alias_frac):
    band = fs * band_ratio
    alias = alias_frac * fs
    cands = fold_candidates(alias, fs, band)
    freqs = [f for f, _, _ in cands]
    assert freqs == sorted(set(freqs))
    for f, m, mirror in cands:
        assert f == m * fs + (-alias if mirror else alias)
    # every fold of the alias in (0, band] is listed; where a mirrored and an
    # unmirrored fold coincide (alias 0 or fs/2) the unmirrored one is kept
    unmirrored = {m * fs + alias for m in range(int(band / fs) + 2)}
    for m in range(int(band / fs) + 2):
        for f in (m * fs + alias, m * fs - alias):
            if 0.0 < f <= band:
                assert f in freqs
    assert not any(mirror and f in unmirrored for f, _, mirror in cands)


def test_unfold_example():
    f, m, mirror = unfold(98e6, 33e6, FS, BAND)
    assert f == 1 * FS - 33e6
    assert (m, mirror) == (1, True)


def test_unfold_tie_prefers_smaller():
    # 133 MHz sits exactly between the 100 and 166 MHz candidates
    f, _, _ = unfold(133e6, 33e6, FS, BAND)
    assert f == pytest.approx(100e6)


def test_unfold_ambiguity_gate():
    with pytest.raises(AmbiguousFoldError):
        unfold(98e6, 33e6, FS, BAND, sigma_coarse=30e6)
    f, _, _ = unfold(98e6, 33e6, FS, BAND, sigma_coarse=1e6)
    assert f == pytest.approx(100e6)


def test_ratio_frequency_examples():
    comp = AliasedComponent(
        alias_frequency=33e6,
        amp_x=2.0,
        amp_xdot=TWO_PI * 1e6 * 2.0,
        phase_x=0.1,
        phase_xdot=0.1,
    )
    ratio, f_ratio = ratio_frequency(comp)
    assert ratio == pytest.approx(1.0 / (TWO_PI * 1e6), rel=1e-12)
    assert f_ratio == pytest.approx(1e6, rel=1e-12)
    degenerate = replace(comp, amp_xdot=0.0)
    with pytest.raises(DegenerateRatioError):
        ratio_frequency(degenerate)


def test_noiseless_single_tone_exact():
    tone = ToneParams(frequency=440e6, amplitude=1.3, phase=0.7)
    obs = uniform_obs([tone])
    result = estimate(obs, EstimatorConfig(model_order=1), BAND)
    assert not result.failures
    (est,) = result.tones
    assert est.frequency == pytest.approx(440e6, rel=1e-10)
    assert est.amplitude == pytest.approx(1.3, rel=1e-10)
    assert abs(wrap_phase(est.phase - 0.7)) < 1e-8
    # 440 = 3*133 + 41, so fold index 3 without mirroring
    assert (est.fold_index, est.mirror) == (3, False)
    assert est.alias_frequency == pytest.approx(41e6, rel=1e-9)
    assert est.f_ratio == est.frequency


def test_quadrature_sign_follows_mirror():
    # mirrored fold (100 = 133 - 33): derivative phase lags by pi/2
    obs = uniform_obs([ToneParams(frequency=100e6, amplitude=1.0, phase=0.3)])
    (comp,) = estimate_aliased_spectrum(obs, EstimatorConfig(model_order=1))
    assert wrap_phase(comp.phase_xdot - comp.phase_x) == pytest.approx(
        -math.pi / 2, abs=1e-8
    )
    # plain fold (440 = 3*133 + 41): derivative phase leads by pi/2
    obs = uniform_obs([ToneParams(frequency=440e6, amplitude=1.0, phase=0.3)])
    (comp,) = estimate_aliased_spectrum(obs, EstimatorConfig(model_order=1))
    assert wrap_phase(comp.phase_xdot - comp.phase_x) == pytest.approx(
        math.pi / 2, abs=1e-8
    )


def test_fold_collision_detected():
    # 33 and 166 MHz alias onto the same 33 MHz line at fs = 133 MHz
    tones = [
        ToneParams(frequency=33e6, amplitude=1.0, phase=0.0),
        ToneParams(frequency=166e6, amplitude=0.8, phase=1.1),
    ]
    obs = uniform_obs(tones)
    with pytest.raises(CollisionError):
        estimate_aliased_spectrum(obs, EstimatorConfig(model_order=2))


def folded_tones(count):
    """count tones whose aliases include one within 1 % of 0 and one within
    1 % of fs/2, on folds 0-6; odd tones take the mirrored candidate except
    on fold 0.  Returns (aliases, tones)."""
    aliases = [0.004 * FS, 0.496 * FS] + list(np.linspace(0.03, 0.47, 13) * FS)
    aliases = aliases[:count]
    tones = [
        ToneParams(
            frequency=(i % 7) * FS + (-a if i % 2 and i % 7 else a),
            amplitude=1.0 + 0.05 * i,
            phase=0.4 * i - 1.0,
        )
        for i, a in enumerate(aliases)
    ]
    return aliases, tones


@pytest.mark.parametrize("count", [1, 5, 15])
def test_known_order_matches_automatic_order(count):
    # the known-order range finder against the full SVD of the automatic order
    aliases, tones = folded_tones(count)
    obs = uniform_obs(tones)
    known = estimate_aliased_spectrum(obs, EstimatorConfig(model_order=count))
    auto = estimate_aliased_spectrum(obs, EstimatorConfig())
    assert len(known) == len(auto) == count
    for k, a in zip(known, auto):
        assert abs(k.alias_frequency - a.alias_frequency) < 1e-12 * FS
    assert [c.alias_frequency for c in known] == pytest.approx(
        sorted(aliases), abs=1e-9 * FS
    )


@pytest.mark.parametrize("count", [1, 5, 15])
def test_range_finder_matches_full_svd_under_noise(count):
    # at 10 dB the noise floor is flat, so the leading 2K subspace is only as
    # good as the power step makes it: with it these inputs read angles below
    # 3e-4 rad and singular values within 3e-5, without it 0.16-0.36 rad and
    # 1-4 %
    _, tones = folded_tones(count)
    noise = NoiseConfig(sigma_x=math.sqrt(1.0 / (2.0 * 10.0)))
    obs = add_noise(uniform_obs(tones), noise, seed=11)
    rows = round(len(obs.x) / 3)
    hank = scipy.linalg.hankel(obs.x[:rows], obs.x[rows - 1 :])
    rank = 2 * count
    u, s = _leading_subspace(hank, rank)
    u_full, s_full, _ = scipy.linalg.svd(hank, full_matrices=False)
    angles = scipy.linalg.subspace_angles(u[:, :rank], u_full[:, :rank])
    assert angles.max() <= 1e-2
    assert s[:rank] == pytest.approx(s_full[:rank], rel=2e-3)


def test_known_order_is_deterministic():
    tones = [
        ToneParams(frequency=100e6, amplitude=1.0, phase=0.3),
        ToneParams(frequency=440e6, amplitude=0.7, phase=-1.1),
    ]
    noise = NoiseConfig(sigma_x=0.1)
    obs = add_noise(uniform_obs(tones), noise, seed=3)
    cfg = EstimatorConfig(model_order=2)
    assert estimate_aliased_spectrum(obs, cfg) == estimate_aliased_spectrum(obs, cfg)


def test_degenerate_ratio_reported_not_raised():
    obs = uniform_obs([ToneParams(frequency=100e6, amplitude=1.0, phase=0.0)])
    broken = replace(obs, xdot=np.zeros_like(obs.xdot))
    result = estimate(broken, EstimatorConfig(model_order=1), BAND)
    assert result.tones == []
    assert len(result.failures) == 1
    assert result.failures[0].alias_frequency == pytest.approx(33e6, rel=1e-6)
    assert "ratio" in result.failures[0].reason


def test_amplitude_scale_equivariance():
    tone = ToneParams(frequency=440e6, amplitude=0.9, phase=-1.2)
    obs = uniform_obs([tone])
    scaled = replace(obs, x=3.5 * obs.x, xdot=3.5 * obs.xdot)
    base = estimate(obs, EstimatorConfig(model_order=1), BAND).tones[0]
    big = estimate(scaled, EstimatorConfig(model_order=1), BAND).tones[0]
    assert big.amplitude == pytest.approx(3.5 * base.amplitude, rel=1e-12)
    assert big.frequency == pytest.approx(base.frequency, rel=1e-12)
    assert big.phase == pytest.approx(base.phase, abs=1e-10)


def test_phase_covariance_under_window_delay():
    # phases are referenced to absolute time zero, so delaying the sampling
    # window must not change the recovered phase
    tone = ToneParams(frequency=440e6, amplitude=1.0, phase=0.7)
    delay = 3.7e-6
    times = np.arange(1024) / FS + delay
    obs = DualChannelObservation(
        times=times,
        x=multitone([tone], times),
        xdot=multitone_derivative([tone], times),
    )
    (est,) = estimate(obs, EstimatorConfig(model_order=1), BAND).tones
    assert abs(wrap_phase(est.phase - 0.7)) < 1e-6


def test_ratio_error_tracks_relvar_law():
    # isolate the ratio stage: fit both channels on the known alias support
    # and check the empirical relative variance of f_ratio against
    # 2/(N*SNR), the sum of the two per-channel amplitude terms
    rng = np.random.default_rng(20260113)
    f_true, n, snr = 100e6, 1024, 1e4
    tone = ToneParams(frequency=f_true, amplitude=1.0, phase=0.4)
    t = np.arange(n) / FS
    clean_x = multitone([tone], t)
    clean_d = multitone_derivative([tone], t)
    sigma_x = math.sqrt(1.0 / (2.0 * snr))
    sigma_d = TWO_PI * f_true * sigma_x

    f_alias = alias_frequency(f_true, FS)
    design = np.column_stack(
        [np.cos(TWO_PI * f_alias * t), np.sin(TWO_PI * f_alias * t)]
    )
    solver = np.linalg.pinv(design)

    draws = 2000
    x = clean_x + sigma_x * rng.standard_normal((draws, n))
    d = clean_d + sigma_d * rng.standard_normal((draws, n))
    amp_x = np.hypot(*(solver @ x.T))
    amp_d = np.hypot(*(solver @ d.T))
    f_hat = amp_d / (TWO_PI * amp_x)

    relvar = np.var((f_hat - f_true) / f_true)
    assert relvar == pytest.approx(2.0 / (n * snr), rel=0.15)


def test_multi_tone_noiseless_recovery():
    freqs = [47e6, 150e6, 333e6, 620e6, 910e6]
    tones = [
        ToneParams(frequency=f, amplitude=1.0 + 0.1 * i, phase=0.3 * i - 1.0)
        for i, f in enumerate(freqs)
    ]
    obs = uniform_obs(tones)
    result = estimate(obs, EstimatorConfig(model_order=5), BAND)
    assert not result.failures
    assert len(result.tones) == 5
    for est, tone in zip(result.tones, tones):
        assert est.frequency == pytest.approx(tone.frequency, rel=1e-9)
        assert est.amplitude == pytest.approx(tone.amplitude, rel=1e-9)
        assert abs(wrap_phase(est.phase - tone.phase)) < 1e-7
        # fold bookkeeping stays consistent with the reported alias
        folded = est.fold_index * FS + (-1 if est.mirror else 1) * est.alias_frequency
        assert folded == pytest.approx(tone.frequency, rel=1e-9)


def test_automatic_order_selection():
    tones = [
        ToneParams(frequency=150e6, amplitude=1.0, phase=0.0),
        ToneParams(frequency=620e6, amplitude=0.7, phase=1.3),
    ]
    obs = uniform_obs(tones)
    result = estimate(obs, EstimatorConfig(), BAND)
    assert len(result.tones) == 2

    # pure noise offers no singular-value gap to select an order from
    rng = np.random.default_rng(7)
    noise = replace(
        obs,
        x=rng.standard_normal(len(obs)),
        xdot=rng.standard_normal(len(obs)),
        sigma_x=1.0,
        sigma_xdot=1.0,
    )
    with pytest.raises(OrderSelectionError):
        estimate(noise, EstimatorConfig(), BAND)


def test_pencil_size_validation():
    tone = ToneParams(frequency=100e6, amplitude=1.0, phase=0.0)
    obs = uniform_obs([tone], n=16)
    with pytest.raises(ValueError, match="samples"):
        estimate_aliased_spectrum(obs, EstimatorConfig(model_order=4))


def test_nonuniform_noiseless_recovery():
    tones = [
        ToneParams(frequency=150e6, amplitude=1.0, phase=0.4),
        ToneParams(frequency=420e6, amplitude=0.8, phase=-0.9),
    ]
    scenario = Scenario(tones=tuple(tones), band_limit=BAND)
    scheme = SamplingScheme(
        variant="random", num_samples=256, base_rate=2e9, compression=8.0, seed=11
    )
    obs = synthesize(scenario, scheme)
    result = estimate_nonuniform(obs, EstimatorConfig(model_order=2), BAND)
    assert not result.failures
    assert len(result.tones) == 2
    for est, tone in zip(result.tones, tones):
        assert est.frequency == pytest.approx(tone.frequency, rel=1e-9)
        assert est.amplitude == pytest.approx(tone.amplitude, rel=1e-9)
        assert abs(wrap_phase(est.phase - tone.phase)) < 1e-7
        # no aliasing bookkeeping on the nonuniform path
        assert est.alias_frequency is None
        assert (est.fold_index, est.mirror) == (0, False)


def test_nonuniform_dispatch_and_noisy_accuracy():
    tones = [
        ToneParams(frequency=150e6, amplitude=1.0, phase=0.4),
        ToneParams(frequency=420e6, amplitude=0.8, phase=-0.9),
    ]
    scenario = Scenario(tones=tuple(tones), band_limit=BAND)
    scheme = SamplingScheme(
        variant="random", num_samples=512, base_rate=2e9, compression=8.0, seed=3
    )
    noise = NoiseConfig(sigma_x=math.sqrt(1.0 / (2.0 * 1e3)))
    obs = add_noise(synthesize(scenario, scheme), noise, seed=99)
    # estimate() falls through to the nonuniform path on non-grid times
    result = estimate(obs, EstimatorConfig(model_order=2), BAND)
    assert len(result.tones) == 2
    for est, tone in zip(result.tones, tones):
        assert est.frequency == pytest.approx(tone.frequency, rel=1e-3)


def test_infinite_derivative_noise_skips_fold_gate():
    tone = ToneParams(frequency=440e6, amplitude=1.0, phase=0.7)
    obs = uniform_obs([tone])
    # an unusable derivative channel disables the ambiguity gate instead of
    # producing an infinite coarse sigma that rejects every fold
    flagged = replace(obs, sigma_x=1e-3, sigma_xdot=math.inf)
    result = estimate(flagged, EstimatorConfig(model_order=1), BAND)
    assert not result.failures
    assert result.tones[0].frequency == pytest.approx(440e6, rel=1e-9)


def test_refinement_beats_ratio_law():
    # with refinement on, the reported frequency re-anchors on the fold
    # candidate and lands far below the amplitude-ratio error scale; the
    # three tones, one on a mirrored fold, are refined as one problem
    snr = 1e4
    noise = NoiseConfig(sigma_x=math.sqrt(1.0 / (2.0 * snr)))
    for freqs in ([440e6], [100e6, 440e6, 910e6]):
        tones = [
            ToneParams(frequency=f, amplitude=1.0 - 0.1 * i, phase=0.7 + i)
            for i, f in enumerate(freqs)
        ]
        scenario = Scenario(tones=tuple(tones), band_limit=BAND)
        cfg = EstimatorConfig(model_order=len(tones), refine_iters=3)
        ratio_errs, refined_errs = [], []
        for seed in range(5):
            obs = add_noise(uniform_obs(tones), noise, seed=seed)
            obs = replace(obs, scenario=scenario)
            result = estimate(obs, cfg, BAND)
            assert len(result.tones) == len(tones)
            for est, tone in zip(result.tones, tones):
                ratio_errs.append(abs(est.f_ratio - tone.frequency))
                refined_errs.append(abs(est.frequency - tone.frequency))
        assert np.mean(refined_errs) < np.mean(ratio_errs) / 10.0, freqs


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    compression=st.floats(2.0, 20.0),
    n=st.integers(16, 256),
    t0=st.floats(0.0, 1e-5),
    tone_frac=st.floats(0.01, 0.99),
)
def test_lattice_periodogram_matches_direct_sum(seed, compression, n, t0, tone_frac):
    times = random_times(n, compression, seed) + t0
    tau, freqs = periodogram_grid(times)
    rng = np.random.default_rng(seed)
    resid = np.cos(TWO_PI * tone_frac * BAND * times + 0.3) + 0.1 * rng.normal(size=n)
    assert on_lattice(tau, freqs)
    power = periodogram(resid, tau, freqs)
    ref = direct_power(resid, tau, freqs)
    assert np.max(np.abs(power - ref)) <= 1e-10 * ref.max()
    assert np.argmax(power) == np.argmax(ref)


def _jittered(times):
    # every time moved by its own non-lattice fraction of a 2 GHz slot
    rng = np.random.default_rng(5)
    return times + rng.uniform(0.05, 0.45, len(times)) / 2e9


def _gaps_of_two_or_three(n=256):
    # every gap a multiple of 2 or 3 slots, none of 1: the step is not the
    # smallest gap but a divisor of it
    rng = np.random.default_rng(6)
    return np.cumsum(rng.choice([2, 3, 4, 6, 9], n)) / 2e9


@pytest.mark.parametrize(
    "times, lattice",
    [
        (_jittered(random_times()), False),
        (_gaps_of_two_or_three(), True),
        # 8192 slots, above the cap of 16 * (256 samples + 128 grid points)
        (random_times(compression=32.0, base_rate=256e9), False),
    ],
    ids=["jittered", "gaps_2_or_3", "over_cap"],
)
def test_periodogram_edge_cases_match_direct_sum(times, lattice):
    tau, freqs = periodogram_grid(times)
    resid = multitone([ToneParams(frequency=420e6, amplitude=1.0, phase=0.2)], times)
    assert on_lattice(tau, freqs) == lattice
    power = periodogram(resid, tau, freqs)
    ref = direct_power(resid, tau, freqs)
    assert np.max(np.abs(power - ref)) <= 1e-10 * ref.max()


T0 = 3.7e-6  # absolute times: every transform carries the phase of t_0


@pytest.mark.parametrize(
    "times, grid, lattice",
    [
        # periodogram grids on an M = 4*duration*base_rate slot DFT: with a
        # 1 GHz band they run to M/2, to M (mirrored bins) and to 2M (wrapped)
        (random_times(base_rate=2e9) + T0, None, True),
        (random_times(base_rate=1e9) + T0, None, True),
        (random_times(base_rate=0.5e9) + T0, None, True),
        # the pursuit's grid at 133 MS/s is no DFT bins: Bluestein
        (T0 + np.arange(512) / FS, np.arange(1, 1025) * (BAND / 1024), True),
        (_jittered(random_times()) + T0, None, False),
    ],
    ids=["bins_to_half", "bins_mirrored", "bins_wrapped", "bluestein", "direct"],
)
def test_grid_dtft_matches_dense_sum(times, grid, lattice):
    freqs = periodogram_grid(times)[1] if grid is None else grid
    assert on_lattice(times - times[0], freqs) == lattice
    rows = np.random.default_rng(8).standard_normal((2, len(times)))
    dtft = _grid_dtft(times, freqs)(rows)
    ref = rows @ np.exp(-1j * TWO_PI * np.outer(times, freqs))
    tol = 1e-10 * np.abs(ref).max()
    assert np.abs(dtft.real - ref.real).max() <= tol
    assert np.abs(dtft.imag - ref.imag).max() <= tol


def test_nonuniform_noiseless_recovery_off_lattice():
    tones = [
        ToneParams(frequency=150e6, amplitude=1.0, phase=0.4),
        ToneParams(frequency=420e6, amplitude=0.8, phase=-0.9),
    ]
    times = _jittered(random_times())
    assert not on_lattice(*periodogram_grid(times))
    obs = observe(tones, times)
    result = estimate_nonuniform(obs, EstimatorConfig(model_order=2), BAND)
    assert not result.failures
    assert len(result.tones) == 2
    for est, tone in zip(result.tones, tones):
        assert est.frequency == pytest.approx(tone.frequency, rel=1e-9)
        assert est.amplitude == pytest.approx(tone.amplitude, rel=1e-9)


def test_random_scheme_amplitude_scale_equivariance():
    tone = ToneParams(frequency=440e6, amplitude=0.9, phase=-1.2)
    obs = observe([tone], random_times())
    scaled = replace(obs, x=3.5 * obs.x, xdot=3.5 * obs.xdot)
    base = estimate(obs, EstimatorConfig(model_order=1), BAND).tones[0]
    big = estimate(scaled, EstimatorConfig(model_order=1), BAND).tones[0]
    assert big.amplitude == pytest.approx(3.5 * base.amplitude, rel=1e-12)
    assert big.frequency == pytest.approx(base.frequency, rel=1e-12)
    assert big.phase == pytest.approx(base.phase, abs=1e-10)


def test_random_scheme_phase_covariance_under_window_delay():
    # the delayed window starts off the base grid; tau = t - t[0] still lies
    # on it, so the FFT periodogram runs
    tone = ToneParams(frequency=440e6, amplitude=1.0, phase=0.7)
    times = random_times() + 3.7e-6 + 0.3 / 2e9
    assert on_lattice(*periodogram_grid(times))
    obs = observe([tone], times)
    (est,) = estimate(obs, EstimatorConfig(model_order=1), BAND).tones
    assert abs(wrap_phase(est.phase - 0.7)) < 1e-6


def _gn_problem(k=3):
    # a noisy random-scheme record and the inputs estimate_nonuniform hands
    # to _gauss_newton: targets, weights and the grid step
    cfg = ExperimentConfig(scheme_variant="random", n_samples=256, tone_count_range=(k, k))
    scheme = SamplingScheme(
        variant="random", num_samples=256, base_rate=2 * BAND, compression=8.0, seed=4
    )
    scenario = generate_scenario(np.random.default_rng(4), cfg, scheme)
    obs = add_noise(synthesize(scenario, scheme), NoiseConfig(sigma_x=0.05), seed=4)
    tau = obs.times - obs.times[0]
    return scenario, tau, *_channels(obs), 1.0 / (4.0 * tau[-1])


def test_gauss_newton_steps_are_capped_and_descend():
    scenario, tau, targets, weights, cap = _gn_problem()
    # start every tone 1.5 grid steps off, so the first steps are capped
    start = np.array(scenario.frequencies) + 1.5 * cap * np.array([1.0, -1.0, 1.0])
    iterates = [
        _gauss_newton(start, tau, targets, weights, cap, BAND, steps=s) for s in range(8)
    ]
    freqs = [f for f, _, _ in iterates]
    costs = [float(np.sum((resid * weights) ** 2)) for _, _, resid in iterates]
    moves = [np.max(np.abs(b - a)) for a, b in zip(freqs, freqs[1:])]
    assert moves[0] == pytest.approx(cap, rel=1e-12)
    assert max(moves) <= cap * (1.0 + 1e-12)
    assert all(c1 <= c0 for c0, c1 in zip(costs, costs[1:]))
    assert costs[-1] < costs[0] / 10.0
    assert freqs[-1] == pytest.approx(scenario.frequencies, abs=0.1 * cap)
    # the returned coefficients are the least-squares fit at the frequencies
    f_end, coefs, resid = iterates[-1]
    design = np.column_stack(
        [g(TWO_PI * f * tau) for f in f_end for g in (np.cos, np.sin)]
    )
    assert np.allclose(targets - design @ coefs, resid)


def test_gauss_newton_refuses_a_step_out_of_band():
    scenario, tau, targets, weights, cap = _gn_problem(k=1)
    (f_true,) = scenario.frequencies
    start = np.array([f_true - 0.4 * cap])
    # the step toward f_true would cross a band limit just below it
    stuck, _, _ = _gauss_newton(start, tau, targets, weights, cap, f_true - 0.2 * cap)
    assert stuck == start
    moved, _, _ = _gauss_newton(start, tau, targets, weights, cap, BAND)
    assert moved == pytest.approx(f_true, abs=0.01 * cap)


def _assert_noiseless_random_recovery(seed, k, n, compression):
    # tones at the generator's minimum separation of 4/duration
    cfg = ExperimentConfig(scheme_variant="random", n_samples=n, tone_count_range=(k, k))
    scheme = SamplingScheme(
        variant="random", num_samples=n, base_rate=2 * BAND, compression=compression, seed=seed
    )
    scenario = generate_scenario(np.random.default_rng(seed), cfg, scheme)
    result = estimate(synthesize(scenario, scheme), EstimatorConfig(model_order=k), BAND)
    assert [t.frequency for t in result.tones] == pytest.approx(scenario.frequencies, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
    n=st.integers(64, 256),
    compression=st.floats(2.0, 20.0),
)
# the sidelobes of the unfitted tones reach the noise-floor test's threshold
@example(seed=1860389496, k=4, n=107, compression=20.0)
def test_random_scheme_noiseless_recovery(seed, k, n, compression):
    # below about 24 samples per tone a greedy pick can land on a sidelobe of
    # the tones not yet fitted (see the xfail below)
    assume(n >= 24 * k)
    _assert_noiseless_random_recovery(seed, k, n, compression)


@pytest.mark.xfail(strict=True, reason="greedy peak pick takes a sidelobe at 13 samples per tone")
def test_random_scheme_noiseless_recovery_few_samples_per_tone():
    _assert_noiseless_random_recovery(seed=27633, k=5, n=64, compression=17.0)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize drags in scipy.sparse, .spatial and .special at start-up,
    # and nothing in the package needs it
    src = Path(subnyq.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import subnyq; print(list(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert "subnyq.sngem" in proc.stdout
    assert "'scipy.optimize'" not in proc.stdout
