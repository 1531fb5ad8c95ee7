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
from enum import Enum

from .errors import SaturationError, check_range

__all__ = ["Placement", "EmissionSpec", "LeakageIntensity", "mean_photon_number"]


class Placement(Enum):
    """Where the parasitic emitter sits relative to the state encoder."""

    PRE_ENCODER = "pre_encoder"
    POST_ENCODER = "post_encoder"


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
            raise SaturationError(
                "count_rate * pulse_width = "
                f"{self.count_rate * self.pulse_width:g} >= 1; click "
                "probability saturates and the intensity is undefined")


@dataclass(frozen=True)
class LeakageIntensity:
    """Mean photon number of the leaked state, tagged by placement.

    Attributes:
        mu: Mean leaked photon number per gate, >= 0.
        placement: Pre- or post-encoder location of the emitter.
    """

    mu: float
    placement: Placement

    def __post_init__(self):
        check_range("mu", self.mu, 0.0)


def mean_photon_number(
    spec: EmissionSpec, placement: Placement = Placement.PRE_ENCODER
) -> LeakageIntensity:
    """Mean leaked photon number for one driving configuration.

    Args:
        spec: Emission count rate and gate width; the click probability
            C(U) dt must lie in [0, 1).
        placement: Copied into the result so downstream security models
            know which attack geometry applies.

    Returns:
        LeakageIntensity with mu = -ln(1 - C(U) dt).
    """
    p_click = spec.count_rate * spec.pulse_width
    # log1p keeps full relative precision in the dim limit p_click -> 0.
    mu = -math.log1p(-p_click)
    return LeakageIntensity(mu=mu, placement=placement)
