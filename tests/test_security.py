"""Key-rate formulas: quantum-coin inflation and the dual-source rate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voaleak import (
    ChannelParams,
    DomainError,
    SinglePhotonBounds,
    binary_entropy,
    calibrated_intensity,
    coin_imbalance,
    dual_source_key_rate,
    gllp_key_rate,
    observables_for_intensity,
    phase_error_with_tha,
    single_photon_bounds,
)
from voaleak.security import _coins
from helpers import (
    PROTOCOL_ANGLES,
    basis_fidelity,
    coin_imbalance_reference,
    decoy_observations,
    fidelity_imbalance,
    h2,
    random_channel,
)


def table_run(distance=0.0, mu_el=0.0):
    ch = ChannelParams(distance=distance)
    obs = decoy_observations(ch, 0.48, 0.02, 0.001, mu_el)
    return obs, single_photon_bounds(obs)


class TestBinaryEntropy:
    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_near_half(self):
        assert binary_entropy(0.11) == pytest.approx(
            0.499915958164528, rel=1e-12)

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(
            binary_entropy(0.7), rel=1e-14)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                binary_entropy(bad)


class TestCoinImbalance:
    def test_zero_leak(self):
        assert coin_imbalance(0.0) == 0.0

    def test_frozen_values(self):
        assert coin_imbalance(0.0048) == pytest.approx(
            0.001546916409914556, rel=1e-12)
        assert coin_imbalance(0.0977) == pytest.approx(
            0.029781027720690745, rel=1e-12)

    def test_strictly_increasing(self):
        mus = [0.0, 0.0048, 0.0388, 0.0977, 0.5, 2.0, 10.0]
        vals = [coin_imbalance(m) for m in mus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_stays_below_half(self):
        assert coin_imbalance(50.0) < 0.5

    def test_matches_decimal_reference(self):
        # The closed form with cosh and sinh subtracted two numbers near
        # 1 and lost up to 1e-4 relative at mu = 1e-12.
        for mu in np.geomspace(1e-12, 100.0, 1401):
            mu = float(mu)
            assert coin_imbalance(mu) == pytest.approx(
                coin_imbalance_reference(mu), rel=1e-15, abs=0.0), mu

    def test_non_decreasing_within_zero_and_half(self):
        deltas = _coins(np.geomspace(1e-12, 1e3, 20001))
        assert np.all(np.diff(deltas) >= 0.0)
        assert deltas.min() >= 0.0 and deltas.max() <= 0.5

    @pytest.mark.parametrize("mu", [130.0, 1010.0, 1e6])
    def test_large_leak_rounds_to_half(self, mu):
        # Past mu ~ 127 the exact value lies within half an ulp of 1/2;
        # past ~1004 cosh(mu/sqrt2) alone would overflow.
        assert coin_imbalance(mu) == 0.5
        assert coin_imbalance(100.0) < coin_imbalance(mu)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            coin_imbalance(-0.01)

    def test_fidelity_optimal_reference(self):
        f = basis_fidelity(0.0977, PROTOCOL_ANGLES)
        assert (1.0 - f) / 2.0 == pytest.approx(0.013095, abs=1e-6)

    def test_bounds_fidelity_optimal_imbalance(self):
        # A sound coin bound never undercuts (1 - F)/2, the smallest
        # imbalance compatible with the basis-averaged leaked states.
        mus = np.concatenate([np.geomspace(1e-6, 1e-2, 100),
                              np.arange(1, 2001) * 0.01])
        for mu in mus:
            optimal = (1.0 - basis_fidelity(float(mu), PROTOCOL_ANGLES)) / 2.0
            assert coin_imbalance(float(mu)) >= optimal, mu

    # The encoder turns the leak's angles by r times its 1550 nm angles:
    # r = 1107/1550 for a free-carrier modulator, about 1.40 where the
    # index change is flat in wavelength. The pinned bound is an upper
    # bound up to r = 1.5 (smallest margin 4.8e-4, at mu = 0.5).
    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(0.0048, 0.5), r=st.floats(0.0, 1.5))
    def test_bounds_fidelity_optimal_imbalance_of_a_scaled_encoder(self, mu, r):
        assert coin_imbalance(mu) >= fidelity_imbalance(mu, r)

    def test_undercuts_the_imbalance_of_a_doubled_encoder(self):
        # At r = 2 and the shipped leak the pinned bound lies below the
        # fidelity-optimal imbalance: it assumes the BB84 angles.
        mu = 0.097745
        assert coin_imbalance(mu) == pytest.approx(0.029794, abs=1e-6)
        assert fidelity_imbalance(mu, 2.0) == pytest.approx(0.046560, abs=1e-6)
        assert coin_imbalance(mu) < fidelity_imbalance(mu, 2.0)

    @pytest.mark.parametrize("mu", [1e-3, 0.01, 0.1, 1.0])
    def test_doubled_encoder_closed_form(self, mu):
        # At r = 2 each basis leaks an even/odd cat pair in its own mode,
        # and only the even parts overlap: F = e^(-mu).
        assert fidelity_imbalance(mu, 2.0) == pytest.approx(
            -math.expm1(-mu) / 2.0, rel=1e-12, abs=0.0)


class TestPhaseErrorInflation:
    def test_no_imbalance_is_identity(self):
        for e_x in (0.0, 0.0061, 0.11, 0.5):
            assert phase_error_with_tha(e_x, 0.0) == e_x

    def test_pure_imbalance(self):
        d = 0.01
        assert phase_error_with_tha(0.0, d) == pytest.approx(
            4.0 * d * (1.0 - d), rel=1e-12)

    def test_frozen_point(self):
        assert phase_error_with_tha(0.02, 0.01) == pytest.approx(
            0.11262091054841131, rel=1e-12)

    def test_saturates_at_half_imbalance(self):
        assert phase_error_with_tha(0.01, 0.5) == 0.5
        assert phase_error_with_tha(0.01, 0.7) == 0.5

    def test_never_below_input(self):
        for e_x in (0.0, 0.02, 0.2, 0.45):
            for d in (0.0, 1e-4, 0.01, 0.2, 0.49):
                assert phase_error_with_tha(e_x, d) >= e_x

    def test_capped_at_half(self):
        assert phase_error_with_tha(0.45, 0.3) == 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phase_error_with_tha(0.6, 0.01)
        with pytest.raises(DomainError):
            phase_error_with_tha(0.02, -0.01)


class TestParams:
    def test_tha_validation(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError):
            gllp_key_rate(obs, bounds, -0.1)
        with pytest.raises(DomainError):
            gllp_key_rate(obs, bounds, 0.1, p_z=0.0)
        with pytest.raises(DomainError):
            gllp_key_rate(obs, bounds, 0.1, f_ec=0.9)

    def test_dual_validation(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError):
            dual_source_key_rate(obs, bounds, q_proto=0.0)
        with pytest.raises(DomainError):
            dual_source_key_rate(obs, bounds, f_ec=0.5)

    # Each rate checks its arguments in signature order, so a call with
    # several bad values names the first of them.
    def test_gllp_checks_mu_eve_first(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError, match="mu_eve"):
            gllp_key_rate(obs, bounds, -0.1, p_z=0.0, f_ec=0.9)

    def test_gllp_checks_p_z_before_f_ec(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError, match="p_z"):
            gllp_key_rate(obs, bounds, 0.1, p_z=0.0, f_ec=0.9)

    def test_dual_checks_q_proto_before_f_ec(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError, match="q_proto"):
            dual_source_key_rate(obs, bounds, q_proto=0.0, f_ec=0.5)

    def test_gllp_rejects_a_bad_element_of_a_leak_array(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError, match="mu_eve"):
            gllp_key_rate(obs, bounds, np.array([0.0, 0.01, -1e-3]))

    def test_gllp_rejects_nan_in_a_leak_array(self):
        obs, bounds = table_run()
        with pytest.raises(DomainError, match="mu_eve"):
            gllp_key_rate(obs, bounds, np.array([0.0, math.nan, 0.01]))

    def test_gllp_positional_arguments_match_keywords(self):
        obs, bounds = table_run(distance=5.0)
        assert (gllp_key_rate(obs, bounds, 0.01, 0.7, 1.1)
                == gllp_key_rate(obs, bounds, mu_eve=0.01, p_z=0.7, f_ec=1.1))

    def test_dual_positional_arguments_match_keywords(self):
        obs, bounds = table_run(distance=5.0, mu_el=0.01)
        assert (dual_source_key_rate(obs, bounds, 0.7, 1.1)
                == dual_source_key_rate(obs, bounds, q_proto=0.7, f_ec=1.1))

    def test_gllp_defaults(self):
        obs, bounds = table_run(distance=5.0)
        assert (gllp_key_rate(obs, bounds, 0.01)
                == gllp_key_rate(obs, bounds, 0.01, p_z=1.0, f_ec=1.2))

    def test_dual_defaults(self):
        obs, bounds = table_run(distance=5.0, mu_el=0.01)
        assert (dual_source_key_rate(obs, bounds)
                == dual_source_key_rate(obs, bounds, q_proto=0.5, f_ec=1.2))


class TestGllpKeyRate:
    def test_clean_rate_matches_standard_formula(self):
        obs, bounds = table_run()
        got = gllp_key_rate(obs, bounds, 0.0)
        p1 = obs.s * math.exp(-obs.s)
        want = max(0.0, p1 * bounds.y1_lower
                   * (1.0 - binary_entropy(bounds.e1_upper))
                   - obs.q_s * 1.2 * binary_entropy(obs.e_s))
        assert got == want

    def test_frozen_values_at_zero_distance(self):
        obs, bounds = table_run()
        assert gllp_key_rate(obs, bounds, 0.0) == pytest.approx(
            0.19844441919682251, rel=1e-12)
        assert gllp_key_rate(obs, bounds, 0.0977) == pytest.approx(
            0.04088125638333813, rel=1e-12)

    def test_monotone_in_leak_intensity(self):
        obs, bounds = table_run(distance=5.0)
        rates = [gllp_key_rate(obs, bounds, m)
                 for m in (0.0, 0.0048, 0.0388, 0.0977)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_zero_yield_bound_gives_zero(self):
        obs, _ = table_run()
        dead = SinglePhotonBounds(y1_lower=0.0, e1_upper=0.5,
                                  q1_lower=0.0, y0_lower=0.0, clamp_events=1)
        assert gllp_key_rate(obs, dead, 0.0977) == 0.0

    def test_tiny_yield_bound_saturates_without_overflow(self):
        # Delta / Y1^L would overflow a double; Delta' saturates e_X' at
        # 1/2 instead, which zeroes the privacy term.
        obs, _ = table_run()
        tiny = SinglePhotonBounds(y1_lower=1e-320, e1_upper=0.01,
                                  q1_lower=1e-321, y0_lower=0.0)
        assert gllp_key_rate(obs, tiny, np.array([0.0, 0.0977])).tolist() == [
            0.0, 0.0]

    def test_strong_leak_kills_rate_at_range(self):
        obs, bounds = table_run(distance=13.0)
        assert gllp_key_rate(obs, bounds, 0.0) == pytest.approx(
            0.1079511235360605, rel=1e-12)
        assert gllp_key_rate(obs, bounds, 0.0977) == 0.0

    def test_rate_scales_with_p_z_squared(self):
        # Scaling by 1/4 is exact, so the halved basis probability gives
        # a quarter of the rate to the bit.
        obs, bounds = table_run(distance=5.0)
        assert (gllp_key_rate(obs, bounds, 0.01, p_z=0.5)
                == 0.25 * gllp_key_rate(obs, bounds, 0.01, p_z=1.0))

    def test_monotone_in_f_ec(self):
        obs, bounds = table_run(distance=5.0)
        rates = [gllp_key_rate(obs, bounds, 0.01, f_ec=f)
                 for f in (1.0, 1.1, 1.2, 1.5)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_leak_array_matches_scalar_calls(self):
        obs, bounds = table_run(distance=5.0)
        leaks = np.array([0.0, 0.0048, 0.0388, 0.0977])
        got = gllp_key_rate(obs, bounds, leaks)
        assert got.shape == leaks.shape
        assert got.tolist() == [gllp_key_rate(obs, bounds, float(m))
                                for m in leaks]

    def test_distance_grid_matches_scalar_calls(self):
        grid = np.array([0.0, 5.0, 13.0])
        obs, bounds = table_run(distance=grid)
        got = gllp_key_rate(obs, bounds, 0.01)
        assert got.tolist() == [gllp_key_rate(*table_run(distance=float(d)), 0.01)
                                for d in grid]


class TestDualSourceKeyRate:
    def test_clean_rate_is_half_the_unsifted_rate(self):
        obs, bounds = table_run(distance=13.0)
        dual = dual_source_key_rate(obs, bounds)
        full = gllp_key_rate(obs, bounds, 0.0)
        assert dual == 0.5 * full
        assert dual == pytest.approx(0.05397556176803025, rel=1e-12)

    def test_contamination_lowers_rate(self):
        rates = []
        for mu_el in (0.0, 0.0048, 0.0388, 0.0977):
            obs, bounds = table_run(distance=13.0, mu_el=mu_el)
            rates.append(dual_source_key_rate(obs, bounds))
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_rate_linear_in_q_proto(self):
        obs, bounds = table_run(distance=5.0, mu_el=0.01)
        assert (dual_source_key_rate(obs, bounds, q_proto=0.5)
                == 0.5 * dual_source_key_rate(obs, bounds, q_proto=1.0))

    def test_monotone_in_f_ec(self):
        obs, bounds = table_run(distance=5.0, mu_el=0.01)
        rates = [dual_source_key_rate(obs, bounds, f_ec=f)
                 for f in (1.0, 1.1, 1.2, 1.5)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_distance_grid_matches_scalar_calls(self):
        grid = np.array([0.0, 5.0, 13.0])
        obs, bounds = table_run(distance=grid, mu_el=0.0977)
        got = dual_source_key_rate(obs, bounds)
        assert got.tolist() == [
            dual_source_key_rate(*table_run(distance=float(d), mu_el=0.0977))
            for d in grid]

    def test_leak_free_baseline_ignores_parasitic_band(self):
        lossy = ChannelParams(distance=13.0, alpha_par=5.0)
        clear = ChannelParams(distance=13.0, alpha_par=0.8)
        rates = []
        for ch in (lossy, clear):
            obs = decoy_observations(ch, 0.48, 0.02, 0.001, 0.0)
            rates.append(dual_source_key_rate(obs, single_photon_bounds(obs)))
        assert rates[0] == rates[1]

    # The rate is a difference of two terms, so a rise is measured
    # against the larger privacy term q Q1^L (1 - h2(e1^U)), not against
    # the rate: at 95 km a rate of 8.4e-6 rose by 2.9e-14 where about
    # 2e-18 leaked photons reach Bob. Over 600 channels x 61 distances x
    # 401 leaks the worst rise was 3.6e-15 of that term.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           distances=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=8),
           exponents=st.lists(st.floats(-6.0, 1.5), min_size=2, max_size=2,
                              unique=True).map(sorted))
    def test_more_leak_never_raises_the_rate(self, seed, distances, exponents):
        ch, _ = random_channel(np.random.default_rng(seed))
        ch = ChannelParams(**{**vars(ch), "distance": np.array(distances)})
        rates, privacy = [], []
        for mu_el in 10.0 ** np.array(exponents):
            obs = decoy_observations(ch, 0.48, 0.02, 0.001, float(mu_el))
            bounds = single_photon_bounds(obs)
            rates.append(dual_source_key_rate(obs, bounds))
            privacy.append(0.5 * bounds.q1_lower
                           * (1.0 - np.array([h2(e) for e in bounds.e1_upper])))
        assert np.all(rates[1] <= rates[0] + 1e-14 * np.maximum(*privacy))


@st.composite
def drawn_channels(draw, distance=st.floats(0.0, 150.0)):
    """A channel of drawn losses, noise and distance (a float or a grid)."""
    return ChannelParams(
        distance=draw(distance),
        alpha_sig=draw(st.floats(0.1, 1.0)),
        alpha_par=draw(st.floats(0.1, 2.0)),
        eta_bob_sig=draw(st.floats(0.1, 1.0)),
        eta_bob_par=draw(st.floats(0.05, 1.0)),
        y0=10.0 ** draw(st.floats(-9.0, -4.0)),
        e_d=draw(st.floats(0.0, 0.12)))


_GRIDS = st.lists(st.floats(0.0, 150.0), min_size=1, max_size=8).map(np.array)


class TestOneRateBody:
    """Both geometries share one rate body: without a coin imbalance the
    GLLP rate is the dual-source rate with q_proto = p_z^2, to the bit."""

    @settings(max_examples=300, deadline=None)
    @given(ch=st.one_of(drawn_channels(), drawn_channels(_GRIDS)),
           mu_el=st.floats(0.0, 0.5), p_z=st.floats(0.05, 1.0),
           f_ec=st.floats(1.0, 1.5))
    def test_zero_leak_gllp_is_dual_with_q_proto_p_z_squared(
            self, ch, mu_el, p_z, f_ec):
        obs = decoy_observations(ch, 0.48, 0.02, 0.001, mu_el)
        bounds = single_photon_bounds(obs)
        gllp = gllp_key_rate(obs, bounds, 0.0, p_z, f_ec)
        dual = dual_source_key_rate(obs, bounds, p_z ** 2, f_ec)
        assert type(gllp) is type(dual)
        assert np.asarray(gllp).tobytes() == np.asarray(dual).tobytes()


class TestCalibratedIntensity:
    def test_inverts_single_source_gain(self):
        ch = ChannelParams(distance=20.0)
        obs = observables_for_intensity(0.48, 0.0, ch)
        s_cal = calibrated_intensity(obs.gain, ch.eta_signal(), ch.y0)
        assert s_cal == pytest.approx(0.48, rel=1e-12)

    def test_contamination_inflates_calibration(self):
        ch = ChannelParams(distance=0.0)
        obs = observables_for_intensity(0.48, 0.0977, ch)
        s_cal = calibrated_intensity(obs.gain, ch.eta_signal(), ch.y0)
        want = 0.48 + 0.0977 * (ch.eta_parasitic() / ch.eta_signal())
        assert s_cal == pytest.approx(want, rel=1e-12)
        assert s_cal == pytest.approx(0.5113141025641026, rel=1e-12)
        assert s_cal > 0.48

    def test_gain_below_background_rejected(self):
        with pytest.raises(DomainError, match="background yield"):
            calibrated_intensity(1e-9, 0.5, 2e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            calibrated_intensity(0.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            calibrated_intensity(0.3, 0.0, 0.0)
        with pytest.raises(DomainError):
            calibrated_intensity(0.3, 0.5, 1.0)
