"""Channel and detection statistics for the co-propagating source pair."""

import math

import numpy as np
import pytest

from voaleak import (
    ChannelParams,
    DomainError,
    UndefinedConditionalError,
    UndefinedQberError,
    error_ij,
    observables_for_intensity,
    transmittance,
    yield_ij,
)
from helpers import (
    brute_force_error_gain,
    brute_force_gain,
    error_rate_enumeration,
    random_channel,
)


class TestTransmittance:
    def test_zero_distance(self):
        assert transmittance(0.2, 0.0) == 1.0

    def test_ten_db(self):
        assert transmittance(0.2, 50.0) == pytest.approx(0.1, rel=1e-12)

    def test_parasitic_at_15km(self):
        assert transmittance(0.8, 15.0) == pytest.approx(
            0.06309573444801933, rel=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            transmittance(-0.1, 10.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            transmittance(0.2, -1.0)


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


class TestYieldIj:
    def test_vacuum_vacuum(self):
        assert yield_ij(0, 0, 0.3, 0.1, 0.01) == 0.01

    def test_perfect_transmission_saturates(self):
        assert yield_ij(1, 0, 1.0, 0.1, 0.0) == 1.0
        assert yield_ij(3, 7, 1.0, 0.9, 0.5) == 1.0

    def test_two_one_point(self):
        y = yield_ij(2, 1, 0.3, 0.1, 0.01)
        assert y == pytest.approx(0.56341, abs=1e-10)
        assert y == pytest.approx(1.0 - 0.49 * 0.9 * 0.99, rel=1e-12)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(DomainError):
            yield_ij(-1, 0, 0.3, 0.1, 0.01)

    def test_non_integer_photon_number_rejected(self):
        with pytest.raises(DomainError):
            yield_ij(1.5, 0, 0.3, 0.1, 0.01)

    def test_numpy_integers_accepted(self):
        assert yield_ij(np.int64(2), np.int64(1), 0.3, 0.1, 0.01) == \
            yield_ij(2, 1, 0.3, 0.1, 0.01)

    def test_monotone_in_photon_numbers(self):
        prev = 0.0
        for i in range(6):
            y = yield_ij(i, 0, 0.25, 0.1, 1e-6)
            assert y > prev or i == 0
            prev = y


class TestErrorIj:
    def test_background_only(self):
        assert error_ij(0, 0, 0.3, 0.1, 0.01, 0.02, 0.5) == pytest.approx(
            0.5, rel=1e-12)

    def test_signal_only(self):
        assert error_ij(3, 0, 0.3, 0.1, 0.0, 0.02, 0.5) == pytest.approx(
            0.02, rel=1e-12)

    def test_one_one_frozen_point(self):
        e = error_ij(1, 1, 0.5, 0.5, 0.0, 0.01, 0.5)
        assert e == pytest.approx(0.3383333333333334, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            i, j = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            eta = float(rng.uniform(0.0, 1.0))
            etap = float(rng.uniform(0.0, 1.0))
            y0 = float(rng.uniform(0.0, 0.2))
            e_d = float(rng.uniform(0.0, 0.5))
            e0 = float(rng.uniform(0.0, 1.0))
            try:
                want = error_rate_enumeration(i, j, eta, etap, y0, e_d, e0)
            except ZeroDivisionError:
                with pytest.raises(UndefinedConditionalError):
                    error_ij(i, j, eta, etap, y0, e_d, e0)
                continue
            got = error_ij(i, j, eta, etap, y0, e_d, e0)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_undefined_when_yield_zero(self):
        with pytest.raises(UndefinedConditionalError):
            error_ij(0, 0, 0.3, 0.1, 0.0, 0.02, 0.5)


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
        with pytest.raises(UndefinedQberError):
            observables_for_intensity(0.0, 0.0, ch)

    def test_negative_intensity_rejected(self):
        ch = ChannelParams(distance=10.0)
        with pytest.raises(DomainError):
            observables_for_intensity(-0.1, 0.0, ch)
