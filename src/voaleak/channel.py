"""Two-source threshold-detector channel model.

The legitimate weak coherent signal (intensity gamma) and an unmodulated
parasitic weak coherent source (intensity mu_el) travel to a threshold
detector with independent transmittances. Clicks from the signal, the
parasitic light, and dark counts combine as independent event sources,
which gives closed-form per-pulse gain and error gain after Poisson
averaging over both photon numbers.

All gains use expm1/log1p so that values near the dark-count floor keep
full relative precision. `observables_for_intensity` and the
`ChannelParams` transmittances are elementwise: the distance, the signal
intensity and the parasitic intensity may each be a float or a numpy
array, and they broadcast against each other. Floats come back as
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_range, plain

__all__ = [
    "ChannelParams",
    "Observables",
    "observables_for_intensity",
]


@dataclass(frozen=True)
class ChannelParams:
    """Channel and receiver parameters for both sources.

    Parameters
    ----------
    distance : float or numpy.ndarray
        Fiber length [km], >= 0; an array of lengths makes the
        transmittances and observables arrays over them.
    alpha_sig : float
        Fiber attenuation seen by the signal [dB/km], >= 0.
    alpha_par : float
        Fiber attenuation seen by the parasitic light [dB/km], >= 0.
        It is spectrally far from the signal band, so the loss differs.
    eta_bob_sig : float
        Receiver efficiency for the signal, in (0, 1].
    eta_bob_par : float
        Receiver efficiency for the parasitic light, in (0, 1].
    y0 : float
        Dark/background count probability per pulse, in [0, 1).
    e_d : float
        Misalignment error probability of a signal click, in [0, 0.5].
    e0 : float
        Error probability of background and parasitic clicks; 1/2 for
        basis-uncorrelated light.
    """

    distance: float = 0.0
    alpha_sig: float = 0.2
    alpha_par: float = 0.8
    eta_bob_sig: float = 0.78
    eta_bob_par: float = 0.25
    y0: float = 2e-8
    e_d: float = 0.0061
    e0: float = 0.5

    def __post_init__(self):
        check_range("distance", self.distance, 0.0)
        check_range("alpha_sig", self.alpha_sig, 0.0)
        check_range("alpha_par", self.alpha_par, 0.0)
        check_range("eta_bob_sig", self.eta_bob_sig, 0.0, 1.0, lo_open=True)
        check_range("eta_bob_par", self.eta_bob_par, 0.0, 1.0, lo_open=True)
        check_range("y0", self.y0, 0.0, 1.0, hi_open=True)
        check_range("e_d", self.e_d, 0.0, 0.5)
        check_range("e0", self.e0, 0.0, 1.0)

    def eta_signal(self):
        """End-to-end signal transmittance including the receiver."""
        return plain(_transmittance(self.alpha_sig, self.distance) * self.eta_bob_sig)

    def eta_parasitic(self):
        """End-to-end parasitic transmittance including the receiver."""
        return plain(_transmittance(self.alpha_par, self.distance) * self.eta_bob_par)


@dataclass(frozen=True)
class Observables:
    """Per-pulse measured quantities for one signal intensity.

    Parameters
    ----------
    gain : float or numpy.ndarray
        Detection probability per pulse, in [0, 1].
    qber : float or numpy.ndarray
        Error fraction among detections, in [0, 1]. It can exceed 1/2
        even under the e0 = 1/2 convention: a pulse on which two
        sources click counts as an error if either click is
        erroneous, so parasitic light and dark counts together give a
        vacuum-like decoy 0.5000000049999959 on the shipped
        dual-source channel.

    Built only by `observables_for_intensity`, whose inputs are checked,
    so the record does not check its fields again.
    """

    gain: float
    qber: float


def _transmittance(alpha_db_per_km, distance_km):
    # np.power, not `**`: Python's and numpy's scalar powers can differ
    # from numpy's array loop in the last bit, np.power never does.
    return np.power(10.0, -alpha_db_per_km * distance_km / 10.0)


def _error_gain(a, b, y0: float, e_d: float, e0: float):
    # The error gain e_ij Y_ij: the probability that the signal (arrival
    # probability a, error e_d), the parasitic light (b, e0) or a dark
    # count (y0, e0) gives an erroneous click. Inclusion-exclusion gives
    # e_d a + e0 b + e0 y0 - e_d e0 a b - e_d e0 a y0 - e0^2 b y0
    # + e_d e0^2 a b y0. With A = e_d a, B = e0 b and C = y0 e0 it
    # factors as (1 - C)(A (1 - B) + B) + C, whose terms never cancel
    # and which costs an array 7 operations instead of 14.
    err_par, err_dark = e0 * b, y0 * e0
    return (1.0 - err_dark) * (e_d * a * (1.0 - err_par) + err_par) + err_dark


def observables_for_intensity(gamma, mu_el, ch: ChannelParams) -> Observables:
    """Gain and QBER a receiver would record at one signal intensity.

    Given i signal and j parasitic photons sent, a threshold detector
    with independent arrivals and dark counts clicks with probability

    Y_ij = 1 - (1 - eta_i)(1 - eta'_j)(1 - Y0),

    with eta_i = 1 - (1 - eta)^i and eta'_j = 1 - (1 - eta')^j. The
    click is an error if any of the three sources errs (signal with
    e_d, parasitic light and dark count with e0); inclusion-exclusion
    gives

    e_ij Y_ij = eta_i e_d + eta'_j e0 + Y0 e0
                - eta_i eta'_j e_d e0 - eta_i Y0 e_d e0
                - eta'_j Y0 e0^2 + eta_i eta'_j Y0 e_d e0^2.

    Poisson averaging of Y_ij over both photon numbers gives the gain

    Q = 1 - (1 - Y0) exp(-gamma eta) exp(-mu_el eta'),

    and Poisson averaging of e_ij Y_ij replaces eta_i by
    1 - exp(-gamma eta) and eta'_j by 1 - exp(-mu_el eta') in that
    expression. With mu_el == 0 both are exactly independent of the
    parasitic path.

    Elementwise: gamma, mu_el and ch.distance broadcast against each
    other, so one call covers several intensities over a distance grid.
    Each element is bit-identical to the call with that element's
    floats, whatever the shapes.

    Parameters
    ----------
    gamma : float or numpy.ndarray
        Signal intensity, >= 0.
    mu_el : float or numpy.ndarray
        Parasitic intensity, >= 0.
    ch : ChannelParams
        Channel parameters.

    Returns
    -------
    Observables
        Bundled (gain, qber): floats when every input is a float,
        arrays of the broadcast shape otherwise.

    Raises
    ------
    DomainError
        If an intensity is negative or non-finite, or if any gain is
        exactly zero (no clicks to form a QBER).
    """
    check_range("gamma", gamma, 0.0)
    check_range("mu_el", mu_el, 0.0)
    sig, par = gamma * ch.eta_signal(), mu_el * ch.eta_parasitic()
    q = -np.expm1(math.log1p(-ch.y0) - (sig + par))
    # Both terms of the exponent are <= 0, so only a dark-count-free
    # channel can give a zero gain.
    if ch.y0 == 0.0 and not q.min() > 0.0:
        raise DomainError("gain is zero; QBER undefined")
    e = _error_gain(-np.expm1(-sig), -np.expm1(-par), ch.y0, ch.e_d, ch.e0) / q
    return Observables(gain=plain(q), qber=plain(np.minimum(e, 1.0)))

