"""Count-rate to leaked-mean-photon-number conversion."""

import math

import pytest

from voaleak import (
    DomainError,
    EmissionSpec,
    mean_photon_number,
)

# The three driving configurations exercised throughout the suite:
# (drive V, count rate 1/s, gate width s) -> leaked photons per gate.
DRIVE_TABLE = (
    (1.4, 2.38e7, 2e-10, 0.0048),
    (1.4, 2.38e7, 1.6e-9, 0.0388),
    (2.0, 5.82e7, 1.6e-9, 0.0977),
)


class TestEmissionSpec:
    def test_saturating_product_rejected(self):
        with pytest.raises(DomainError, match="saturates"):
            EmissionSpec(drive_voltage=2.0, count_rate=1e9, pulse_width=1e-9)

    def test_negative_count_rate_rejected(self):
        with pytest.raises(DomainError):
            EmissionSpec(drive_voltage=2.0, count_rate=-1.0, pulse_width=1e-9)

    def test_nonpositive_pulse_width_rejected(self):
        with pytest.raises(DomainError):
            EmissionSpec(drive_voltage=2.0, count_rate=1e6, pulse_width=0.0)

    def test_negative_drive_rejected(self):
        with pytest.raises(DomainError):
            EmissionSpec(drive_voltage=-0.1, count_rate=1e6, pulse_width=1e-9)


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("drive,rate,width,target", DRIVE_TABLE)
    def test_drive_table(self, drive, rate, width, target):
        spec = EmissionSpec(drive_voltage=drive, count_rate=rate,
                            pulse_width=width)
        assert mean_photon_number(spec) == pytest.approx(target, abs=5e-4)

    def test_frozen_values(self):
        mus = [mean_photon_number(
            EmissionSpec(drive_voltage=d, count_rate=c, pulse_width=w))
            for d, c, w, _ in DRIVE_TABLE]
        assert mus[0] == pytest.approx(0.004771364878891049, rel=1e-12)
        assert mus[1] == pytest.approx(0.03882399185758208, rel=1e-12)
        assert mus[2] == pytest.approx(0.09774514191987614, rel=1e-12)

    def test_zero_rate_gives_zero(self):
        spec = EmissionSpec(drive_voltage=0.0, count_rate=0.0, pulse_width=1e-9)
        assert mean_photon_number(spec) == 0.0

    def test_strictly_increasing_in_rate_and_width(self):
        base = mean_photon_number(
            EmissionSpec(drive_voltage=1.0, count_rate=1e6, pulse_width=1e-9))
        more_rate = mean_photon_number(
            EmissionSpec(drive_voltage=1.0, count_rate=2e6, pulse_width=1e-9))
        more_width = mean_photon_number(
            EmissionSpec(drive_voltage=1.0, count_rate=1e6, pulse_width=2e-9))
        assert more_rate > base
        assert more_width > base

    def test_small_probability_limit(self):
        for p in (1e-6, 1e-4, 1e-3):
            spec = EmissionSpec(drive_voltage=1.0, count_rate=p / 1e-9,
                                pulse_width=1e-9)
            mu = mean_photon_number(spec)
            assert abs(mu - p) / p <= 1e-3

    def test_click_probability_round_trip(self):
        for _, rate, width, _ in DRIVE_TABLE:
            spec = EmissionSpec(drive_voltage=1.0, count_rate=rate,
                                pulse_width=width)
            mu = mean_photon_number(spec)
            p = -math.expm1(-mu)
            assert p == pytest.approx(rate * width, rel=1e-12)
