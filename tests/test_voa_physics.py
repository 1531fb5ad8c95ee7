"""Device-physics layer: plasma dispersion, attenuation, ideality fits."""

import math

import numpy as np
import pytest

from voaleak import (
    CarrierState,
    DomainError,
    InsufficientDataError,
    IvCurve,
    attenuation_db,
    attenuation_from_counts,
    bandgap_wavelength,
    fit_ideality,
    plasma_dispersion_general,
    soref_1550,
)
from voaleak.voa_physics import Planck, elementary_charge, speed_of_light
from helpers import shockley_curve


class TestSoref:
    def test_electrons_only(self):
        dn, da = soref_1550(CarrierState(1e17, 0.0))
        assert dn == pytest.approx(-8.8e-05, rel=1e-12)
        assert da == pytest.approx(0.85, rel=1e-12)

    def test_equal_injection(self):
        dn, da = soref_1550(CarrierState(1e17, 1e17))
        assert dn == pytest.approx(-0.00042639109497047325, rel=1e-12)
        assert da == pytest.approx(1.45, rel=1e-12)

    def test_zero_carriers(self):
        assert soref_1550(CarrierState(0.0, 0.0)) == (0.0, 0.0)

    def test_signs_over_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = CarrierState(*(10.0 ** rng.uniform(14, 19, size=2)))
            dn, da = soref_1550(state)
            assert dn <= 0.0
            assert da >= 0.0

    def test_negative_concentration_rejected(self):
        with pytest.raises(DomainError):
            CarrierState(-1e16, 0.0)


class TestDrudeModel:
    def test_default_constants_electron_injection(self):
        dn, da = plasma_dispersion_general(CarrierState(1e17, 0.0))
        assert dn == pytest.approx(-0.00011923388294136178, rel=1e-10)
        assert da == pytest.approx(0.037109835341455795, rel=1e-10)

    def test_scales_quadratically_with_wavelength(self):
        state = CarrierState(5e16, 5e16)
        dn1, da1 = plasma_dispersion_general(state, wavelength=1550.0)
        dn2, da2 = plasma_dispersion_general(state, wavelength=775.0)
        assert dn1 / dn2 == pytest.approx(4.0, rel=1e-12)
        assert da1 / da2 == pytest.approx(4.0, rel=1e-12)

    def test_invalid_wavelength(self):
        with pytest.raises(DomainError):
            plasma_dispersion_general(CarrierState(1e17, 0.0), wavelength=0.0)


class TestAttenuation:
    def test_equal_injection_geometry(self):
        # 1.45 cm^-1 over a 200 um active section
        db = attenuation_db(1.45, 0.02)
        assert db == pytest.approx(0.12594539975194302, rel=1e-12)

    def test_additive_over_length(self):
        a = attenuation_db(0.7, 0.013)
        b = attenuation_db(0.7, 0.029)
        total = attenuation_db(0.7, 0.042)
        assert a + b == pytest.approx(total, rel=1e-12)

    def test_zero_absorption(self):
        assert attenuation_db(0.0, 1.0) == 0.0

    def test_counts_ratio(self):
        db = attenuation_from_counts(0.3236, 1.0)
        assert db == pytest.approx(4.899914870597653, rel=1e-12)

    def test_counts_antisymmetric(self):
        assert attenuation_from_counts(2.0, 5.0) == pytest.approx(
            -attenuation_from_counts(5.0, 2.0), rel=1e-12)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(DomainError):
            attenuation_from_counts(0.0, 1.0)
        with pytest.raises(DomainError):
            attenuation_from_counts(1.0, -2.0)

    def test_bad_geometry(self):
        with pytest.raises(DomainError):
            attenuation_db(1.45, 0.0)


class TestBandgapWavelength:
    def test_silicon_gap(self):
        assert bandgap_wavelength(1.12) == pytest.approx(1107.0, abs=0.01)

    def test_low_energy_gap(self):
        assert bandgap_wavelength(0.8) == pytest.approx(
            1549.8024804150032, rel=1e-12)

    def test_round_trip(self):
        lam = bandgap_wavelength(1.12)
        hc_evnm = (Planck * speed_of_light / elementary_charge) * 1e9
        assert hc_evnm / lam == pytest.approx(1.12, rel=1e-12)

    def test_strictly_decreasing(self):
        gaps = np.linspace(0.5, 3.0, 40)
        lams = [bandgap_wavelength(g) for g in gaps]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_nonpositive_energy(self):
        with pytest.raises(DomainError):
            bandgap_wavelength(0.0)


class TestIdealityFit:
    def test_beta_two_round_trip(self):
        iv = IvCurve(*shockley_curve(2.0))
        fit = fit_ideality(iv, 0.05, 0.9)
        assert fit.beta == pytest.approx(2.0, abs=1e-6)

    def test_slope_to_beta(self):
        # a measured slope of 6.47 decades/V at room temperature
        iv = IvCurve(*shockley_curve(2.596485412331525))
        fit = fit_ideality(iv, 0.05, 0.9)
        assert fit.slope == pytest.approx(6.47, abs=1e-6)
        assert fit.beta == pytest.approx(2.596485412331525, abs=1e-6)

    def test_recovery_across_beta_and_temperature(self):
        for beta in (1.0, 1.3, 1.8, 2.2, 2.6, 3.0):
            for t in (250.0, 300.0, 350.0):
                iv = IvCurve(*shockley_curve(beta, temperature=t))
                fit = fit_ideality(iv, 0.05, 0.9, temperature=t)
                assert fit.beta == pytest.approx(beta, abs=1e-6)

    def test_reports_window_and_temperature(self):
        iv = IvCurve(*shockley_curve(1.5))
        fit = fit_ideality(iv, 0.2, 0.7)
        assert (fit.v_lo, fit.v_hi, fit.temperature) == (0.2, 0.7, 300.0)

    def test_too_few_points(self):
        iv = IvCurve(*shockley_curve(2.0))
        with pytest.raises(InsufficientDataError):
            fit_ideality(iv, 0.05, 0.055)

    def test_nonpositive_current_in_window(self):
        v = np.linspace(0.0, 1.0, 20)
        i = np.full_like(v, 1e-6)
        i[10] = 0.0
        with pytest.raises(DomainError):
            fit_ideality(IvCurve(v, i), 0.0, 1.0)

    def test_decreasing_current_rejected(self):
        # negative log-slope has no diode interpretation
        v = np.linspace(0.0, 1.0, 20)
        i = 1e-6 * np.exp(-3.0 * v)
        with pytest.raises(DomainError):
            fit_ideality(IvCurve(v, i), 0.0, 1.0)

    def test_bad_window(self):
        iv = IvCurve(*shockley_curve(2.0))
        with pytest.raises(DomainError):
            fit_ideality(iv, 0.9, 0.05)

    def test_bad_temperature(self):
        iv = IvCurve(*shockley_curve(2.0))
        with pytest.raises(DomainError):
            fit_ideality(iv, 0.05, 0.9, temperature=0.0)

    def test_temperature_that_underflows_the_slope(self):
        # slope * k * T rounds to zero, so beta would divide by it.
        iv = IvCurve(*shockley_curve(2.0))
        with pytest.raises(DomainError, match="temperature 5e-324"):
            fit_ideality(iv, 0.05, 0.9, temperature=5e-324)

    @pytest.mark.parametrize("scale", [1e155, 1e-158, 1e-300])
    def test_voltages_beyond_the_least_squares_sums(self, scale):
        # The sum of squared voltage deviations overflows at 1e155, is
        # subnormal at 1e-158 and underflows to zero at 1e-300.
        v, i = shockley_curve(2.0)
        with pytest.raises(DomainError, match="overflow or underflow"):
            fit_ideality(IvCurve(v * scale, i), 0.0, scale)

    def test_temperature_that_overflows_the_slope(self):
        # A slope near 1e26 dec/V times k T at 1e308 K exceeds a double.
        v, i = shockley_curve(2.0)
        with pytest.raises(DomainError, match="temperature 1e\\+308"):
            fit_ideality(IvCurve(v * 1e-25, i), 0.0, 1e-25, temperature=1e308)


class TestIvCurve:
    def test_descending_voltages_rejected(self):
        with pytest.raises(DomainError):
            IvCurve(np.array([0.2, 0.1]), np.array([1e-6, 1e-6]))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            IvCurve(np.array([]), np.array([]))

    def test_length(self):
        iv = IvCurve(*shockley_curve(2.0, n=37))
        assert len(iv) == 37
