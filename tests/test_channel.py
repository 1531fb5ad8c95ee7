"""Channel and detection statistics for the co-propagating source pair."""

import math

import numpy as np
import pytest

from voaleak import (
    ChannelParams,
    DomainError,
    observables_for_intensity,
)
from voaleak.channel import _error_gain
from helpers import (
    brute_force_error_gain,
    brute_force_gain,
    error_rate_enumeration,
    random_channel,
)


class TestChannelParams:
    def test_efficiency_bounds(self):
        with pytest.raises(DomainError):
            ChannelParams(eta_bob_sig=0.0)
        with pytest.raises(DomainError):
            ChannelParams(eta_bob_par=1.5)

    def test_dark_count_bounds(self):
        with pytest.raises(DomainError):
            ChannelParams(y0=1.0)

    def test_misalignment_bounds(self):
        with pytest.raises(DomainError):
            ChannelParams(e_d=0.6)

    def test_end_to_end_transmittances(self):
        ch = ChannelParams(distance=50.0)
        assert ch.eta_signal() == pytest.approx(0.1 * 0.78, rel=1e-12)
        assert ch.eta_parasitic() == pytest.approx(1e-4 * 0.25, rel=1e-12)

    # With receiver efficiency 1 the end-to-end transmittance is the
    # fiber's 10^(-alpha L / 10).
    def test_fiber_transmittance_at_zero_distance(self):
        assert ChannelParams(eta_bob_sig=1.0).eta_signal() == 1.0

    def test_fiber_transmittance_ten_db(self):
        assert ChannelParams(distance=50.0, alpha_sig=0.2,
                             eta_bob_sig=1.0).eta_signal() == pytest.approx(
            0.1, rel=1e-12)

    def test_fiber_transmittance_parasitic_at_15km(self):
        assert ChannelParams(distance=15.0, alpha_par=0.8,
                             eta_bob_par=1.0).eta_parasitic() == pytest.approx(
            0.06309573444801933, rel=1e-12)

    def test_distance_grid_matches_scalar_calls(self):
        grid = np.array([0.0, 7.5, 50.0, 123.4])
        ch = ChannelParams(distance=grid)
        for k, d in enumerate(grid):
            one = ChannelParams(distance=float(d))
            assert ch.eta_signal()[k] == one.eta_signal()
            assert ch.eta_parasitic()[k] == one.eta_parasitic()


def error_gain(gamma, mu_el, ch):
    obs = observables_for_intensity(gamma, mu_el, ch)
    return obs.gain * obs.qber


class TestDualSourceGain:
    def test_single_source_reduction(self):
        ch = ChannelParams(distance=20.0)
        got = observables_for_intensity(0.48, 0.0, ch).gain
        eta = ch.eta_signal()
        want = 1.0 - (1.0 - ch.y0) * math.exp(-0.48 * eta)
        assert got == pytest.approx(want, rel=1e-12)

    def test_alpha_par_irrelevant_without_leak(self):
        a = ChannelParams(distance=30.0, alpha_par=0.8)
        b = ChannelParams(distance=30.0, alpha_par=7.3)
        # Equal records: the same gain and the same QBER.
        assert (observables_for_intensity(0.48, 0.0, a)
                == observables_for_intensity(0.48, 0.0, b))

    def test_monotone_in_intensities(self):
        ch = ChannelParams(distance=25.0)
        q = observables_for_intensity(0.48, 0.05, ch).gain
        assert observables_for_intensity(0.49, 0.05, ch).gain > q
        assert observables_for_intensity(0.48, 0.06, ch).gain > q

    def test_matches_poisson_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            ch, _ = random_channel(rng)
            gamma = float(rng.uniform(0.0, 2.0))
            mu_el = float(rng.uniform(0.0, 1.0))
            got = observables_for_intensity(gamma, mu_el, ch).gain
            want = brute_force_gain(gamma, mu_el, ch)
            assert got == pytest.approx(want, rel=1e-10)


class TestDualSourceErrorGain:
    def test_signal_only_reduction(self):
        ch = ChannelParams(distance=20.0, y0=0.0)
        got = error_gain(0.48, 0.0, ch)
        want = ch.e_d * (-math.expm1(-0.48 * ch.eta_signal()))
        assert got == pytest.approx(want, rel=1e-12)

    def test_parasitic_only_reduction(self):
        ch = ChannelParams(distance=20.0, y0=0.0)
        got = error_gain(0.0, 0.3, ch)
        want = ch.e0 * (-math.expm1(-0.3 * ch.eta_parasitic()))
        assert got == pytest.approx(want, rel=1e-12)

    def test_error_gain_below_gain(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ch, mu_el = random_channel(rng)
            gamma = float(rng.uniform(0.0, 2.0))
            # The QBER is capped at 1; below the cap, E Q < Q held unaided.
            assert observables_for_intensity(gamma, mu_el, ch).qber < 1.0

    def test_matches_poisson_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            ch, _ = random_channel(rng)
            gamma = float(rng.uniform(0.0, 2.0))
            mu_el = float(rng.uniform(0.0, 1.0))
            got = error_gain(gamma, mu_el, ch)
            want = brute_force_error_gain(gamma, mu_el, ch)
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_enumeration_oracle(self):
        # The error gain polynomial at fixed photon numbers i and j,
        # against the 27-outcome enumeration of the three click sources.
        rng = np.random.default_rng(11)
        for _ in range(200):
            i, j = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            eta = float(rng.uniform(0.0, 1.0))
            etap = float(rng.uniform(0.0, 1.0))
            y0 = float(rng.uniform(0.0, 0.2))
            e_d = float(rng.uniform(0.0, 0.5))
            e0 = float(rng.uniform(0.0, 1.0))
            a, b = 1.0 - (1.0 - eta) ** i, 1.0 - (1.0 - etap) ** j
            y = 1.0 - (1.0 - a) * (1.0 - b) * (1.0 - y0)
            try:
                want = error_rate_enumeration(i, j, eta, etap, y0, e_d, e0)
            except ZeroDivisionError:
                assert y == 0.0
                continue
            got = _error_gain(a, b, y0, e_d, e0) / y
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


class TestErrorGainPolynomial:
    # _error_gain(a, b, y0, e_d, e0) / Y is the error rate e_ij at fixed
    # photon numbers, with a = 1 - (1 - eta)^i, b = 1 - (1 - eta')^j and
    # Y = 1 - (1 - a)(1 - b)(1 - y0).
    @staticmethod
    def error_rate(i, j, eta, etap, y0, e_d, e0):
        a, b = 1.0 - (1.0 - eta) ** i, 1.0 - (1.0 - etap) ** j
        y = 1.0 - (1.0 - a) * (1.0 - b) * (1.0 - y0)
        return _error_gain(a, b, y0, e_d, e0) / y

    def test_background_only(self):
        assert self.error_rate(0, 0, 0.3, 0.1, 0.01, 0.02, 0.5) == \
            pytest.approx(0.5, rel=1e-12)

    def test_signal_only(self):
        assert self.error_rate(3, 0, 0.3, 0.1, 0.0, 0.02, 0.5) == \
            pytest.approx(0.02, rel=1e-12)

    def test_one_one_frozen_point(self):
        assert self.error_rate(1, 1, 0.5, 0.5, 0.0, 0.01, 0.5) == \
            pytest.approx(0.3383333333333334, rel=1e-12)

    def test_factored_form_equals_inclusion_exclusion(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
            y0 = float(rng.uniform(0.0, 0.2))
            e_d = float(rng.uniform(0.0, 0.5))
            e0 = float(rng.uniform(0.0, 1.0))
            want = (e_d * a + e0 * b + e0 * y0 - e_d * e0 * a * b
                    - e_d * e0 * a * y0 - e0 ** 2 * b * y0
                    + e_d * e0 ** 2 * a * b * y0)
            assert _error_gain(a, b, y0, e_d, e0) == pytest.approx(
                want, rel=1e-12, abs=1e-15)


class TestObservablesElementwise:
    def test_float_inputs_give_floats(self):
        obs = observables_for_intensity(0.48, 0.01, ChannelParams(distance=5.0))
        assert type(obs.gain) is float
        assert type(obs.qber) is float

    def test_distance_grid_matches_scalar_calls(self):
        grid = np.array([0.0, 5.0, 13.0, 60.0])
        obs = observables_for_intensity(0.48, 0.0977, ChannelParams(distance=grid))
        assert obs.gain.shape == obs.qber.shape == grid.shape
        for k, d in enumerate(grid):
            one = observables_for_intensity(
                0.48, 0.0977, ChannelParams(distance=float(d)))
            assert obs.gain[k] == one.gain
            assert obs.qber[k] == one.qber

    def test_intensities_broadcast_against_distances(self):
        gammas = np.array([[0.48], [0.02], [0.001]])
        grid = np.array([0.0, 10.0, 40.0])
        obs = observables_for_intensity(gammas, 0.01, ChannelParams(distance=grid))
        assert obs.gain.shape == (3, 3)
        for r, g in enumerate(gammas[:, 0]):
            for c, d in enumerate(grid):
                one = observables_for_intensity(
                    float(g), 0.01, ChannelParams(distance=float(d)))
                assert (obs.gain[r, c], obs.qber[r, c]) == (one.gain, one.qber)

    def test_zero_gain_anywhere_raises(self):
        ch = ChannelParams(distance=10.0, y0=0.0)
        with pytest.raises(DomainError, match="QBER undefined"):
            observables_for_intensity(np.array([0.48, 0.0]), 0.0, ch)

    def test_negative_intensity_in_array_rejected(self):
        with pytest.raises(DomainError, match="mu_el"):
            observables_for_intensity(0.48, np.array([0.01, -1e-9]),
                                      ChannelParams(distance=10.0))


class TestObservables:
    def test_table_point_at_zero_distance(self):
        ch = ChannelParams(distance=0.0)
        obs = observables_for_intensity(0.48, 0.0, ch)
        want = 1.0 - (1.0 - 2e-8) * math.exp(-0.48 * 0.78)
        assert obs.gain == pytest.approx(want, rel=1e-12)
        assert obs.gain == pytest.approx(0.31229823765897247, rel=1e-12)

    def test_contamination_raises_gain(self):
        ch = ChannelParams(distance=0.0)
        clean = observables_for_intensity(0.48, 0.0, ch)
        dirty = observables_for_intensity(0.48, 0.0977, ch)
        assert dirty.gain > clean.gain
        assert dirty.qber > clean.qber

    def test_vacuum_decoy_qber_exceeds_half(self):
        # Parasitic light and a dark count that click together count as an
        # error if either errs, so with e0 = 1/2 a vacuum decoy records
        # (b + y0 - y0 b / 2) / (2 (b + y0 - y0 b)) > 1/2.
        ch = ChannelParams(distance=0.0)
        obs = observables_for_intensity(0.0, 0.0977, ch)
        b = -math.expm1(-0.0977 * ch.eta_parasitic())
        want = (b + ch.y0 - ch.y0 * b / 2) / (2 * (b + ch.y0 - ch.y0 * b))
        assert obs.qber == pytest.approx(want, rel=1e-12)
        assert obs.qber > 0.5

    def test_undefined_qber_when_everything_off(self):
        ch = ChannelParams(distance=10.0, y0=0.0)
        with pytest.raises(DomainError, match="QBER undefined") as excinfo:
            observables_for_intensity(0.0, 0.0, ch)
        assert excinfo.value.category == "domain"

    def test_negative_intensity_rejected(self):
        ch = ChannelParams(distance=10.0)
        with pytest.raises(DomainError):
            observables_for_intensity(-0.1, 0.0, ch)
