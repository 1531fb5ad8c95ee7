"""Leaked-photon intensity of the parasitic emitter.

Maps a measured emission count rate C(U) and a receiver gate width dt to
the mean photon number of the leaked weak coherent state. With Poisson
statistics the click probability per gate is 1 - exp(-mu), so

    mu = -ln(1 - C(U) dt)

where C(U) dt is the observed per-gate click probability. The inversion
counts every leaked photon as a click, so a configured count rate is
taken as referred to the chip's output: as read by a measuring detector
of efficiency 1 at the emission band.

Eve's window is one symbol, not one gate. A VOA under DC bias emits all
the time, and every photon emitted while the encoder holds a symbol
carries that symbol, so Eve's leak per symbol is C(U) T_sym, with T_sym
the encoder's hold time, which can be longer than the bench gate. So mu
is Eve's leak only when T_sym equals dt, and the device budget's finding
that a 0.2 ns gate buys 44.7 km over a 1.6 ns one holds only then.
"""

from __future__ import annotations

import math

from .errors import DomainError, Record

__all__ = ["EmissionSpec", "mean_photon_number"]


class EmissionSpec(Record):
    """One driving configuration of the emitting device.

    Each field is a config key of a block, `leakage.` in the sweep modes
    or `emission.N.` in device mode; one with a default may be left out.

    Attributes:
        drive_voltage: Forward bias on the junction [V], >= 0; a label,
            0 if left out.
        count_rate: Detected emission count rate C(U) [s^-1], >= 0.
        pulse_width: Receiver gate / pulse width dt [s], > 0.
    """

    drive_voltage: float = 0.0
    count_rate: float
    pulse_width: float

    _intervals = {"drive_voltage": "[0, inf)", "count_rate": "[0, inf)",
                  "pulse_width": "(0, inf)"}

    def __post_init__(self):
        if self.count_rate * self.pulse_width >= 1.0:
            raise DomainError(
                "count_rate * pulse_width = "
                f"{self.count_rate * self.pulse_width:g} >= 1; click "
                "probability saturates and the intensity is undefined")


def mean_photon_number(spec: EmissionSpec) -> float:
    """Mean leaked photon number per gate for one driving configuration.

    The same mu serves both placements of the emitter: before the
    encoder it sets the coin imbalance, after it the parasitic
    intensity that reaches the receiver. Every leaked photon is taken
    to click, so C(U) must be referred to the chip's output (a
    measuring detector of efficiency 1); a detector of efficiency
    eta < 1 implies the larger leak -ln(1 - C(U) dt) / eta.

    Args:
        spec: Emission count rate and gate width; the click probability
            C(U) dt must lie in [0, 1).

    Returns:
        mu = -ln(1 - C(U) dt), >= 0.
    """
    # log1p keeps full relative precision in the dim limit p_click -> 0.
    return -math.log1p(-(spec.count_rate * spec.pulse_width))
