"""Leaked-photon intensity of the parasitic emitter.

Maps a measured emission count rate C(U) and a receiver gate width dt to
the mean photon number of the leaked weak coherent state. With Poisson
statistics the click probability per gate is 1 - exp(-mu), so

    mu = -ln(1 - C(U) dt)

where C(U) dt is the observed per-gate click probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_range

__all__ = ["EmissionSpec", "mean_photon_number"]


@dataclass(frozen=True)
class EmissionSpec:
    """One driving configuration of the emitting device.

    Attributes:
        drive_voltage: Forward bias on the junction [V], >= 0.
        count_rate: Detected emission count rate C(U) [s^-1], >= 0.
        pulse_width: Receiver gate / pulse width dt [s], > 0.
    """

    drive_voltage: float
    count_rate: float
    pulse_width: float

    def __post_init__(self):
        check_range("drive_voltage", self.drive_voltage, 0.0)
        check_range("count_rate", self.count_rate, 0.0)
        check_range("pulse_width", self.pulse_width, 0.0, lo_open=True)
        if self.count_rate * self.pulse_width >= 1.0:
            raise DomainError(
                "count_rate * pulse_width = "
                f"{self.count_rate * self.pulse_width:g} >= 1; click "
                "probability saturates and the intensity is undefined")


def mean_photon_number(spec: EmissionSpec) -> float:
    """Mean leaked photon number per gate for one driving configuration.

    The same mu serves both placements of the emitter: before the
    encoder it sets the coin imbalance, after it the parasitic
    intensity that reaches the receiver.

    Args:
        spec: Emission count rate and gate width; the click probability
            C(U) dt must lie in [0, 1).

    Returns:
        mu = -ln(1 - C(U) dt), >= 0.
    """
    # log1p keeps full relative precision in the dim limit p_click -> 0.
    return -math.log1p(-(spec.count_rate * spec.pulse_width))
