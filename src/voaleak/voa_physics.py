"""Carrier-injection VOA device physics.

Covers the electro-optic behaviour of a forward-biased silicon p-n
junction used as a variable optical attenuator: free-carrier plasma
dispersion (general Drude form and the Soref-Bennett empirical fit at
1550 nm), attenuation bookkeeping, the band-to-band emission wavelength,
and ideality-factor extraction from I-V traces.

Unit conventions at the API boundary follow common silicon-photonics
practice: carrier densities in cm^-3, absorption in cm^-1, lengths in
cm, wavelengths in nm, mobilities in cm^2/(V s). Conversions to SI
happen internally.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    ArrayRecord,
    DomainError,
    InsufficientDataError,
    Record,
    check_range,
    check_scan,
)

# CODATA 2022 physical constants, SI. q, h, c and k_B are exact since
# the 2019 SI redefinition; eps0 and m_e are the 2022 recommended values.
elementary_charge = 1.602176634e-19
Planck = 6.62607015e-34
speed_of_light = 299792458.0
Boltzmann = 1.380649e-23
epsilon_0 = 8.8541878188e-12
m_e = 9.1093837139e-31

__all__ = [
    "CarrierState",
    "IvCurve",
    "IdealityFit",
    "DEFAULT_FIT_WINDOWS",
    "plasma_dispersion_general",
    "soref_1550",
    "attenuation_db",
    "attenuation_from_counts",
    "bandgap_wavelength",
    "fit_ideality",
]

# Crystalline silicon: refractive index near 1550 nm, conductivity
# effective masses 0.26/0.39 m0 and low-doping mobilities 1450/450
# cm^2/(V s). Widely used textbook values, assumptions rather than
# measured device parameters.
_N0 = 3.4757
_M_CE = 0.26 * m_e
_M_CH = 0.39 * m_e
_MU_N = 1450.0 * 1e-4                     # cm^2/(V s) -> m^2/(V s)
_MU_P = 450.0 * 1e-4

# Soref & Bennett (1987) empirical coefficients at 1550 nm, cm^3 units.
_SOREF_DN_E = 8.8e-22
_SOREF_DN_H = 8.5e-18
_SOREF_DA_E = 8.5e-18
_SOREF_DA_H = 6.0e-18

# I-V windows (volts) where the junction shows distinct transport regimes:
# recombination-dominated, diffusion/high-injection, series-resistance onset.
DEFAULT_FIT_WINDOWS: tuple[tuple[float, float], ...] = (
    (0.00, 0.45),
    (0.50, 0.80),
    (0.85, 0.90),
)


# ============================================================
# Data types
# ============================================================

class CarrierState(Record):
    """Injected excess carrier densities.

    Attributes:
        delta_n_e: Excess electron density [cm^-3], >= 0.
        delta_n_h: Excess hole density [cm^-3], >= 0.
    """

    delta_n_e: float
    delta_n_h: float

    _intervals = {"delta_n_e": "[0, inf)", "delta_n_h": "[0, inf)"}


class IvCurve(ArrayRecord):
    """Measured I-V trace of the junction.

    Voltages must be strictly increasing. Currents may touch zero
    outside fitted windows; fitting rejects non-positive currents.

    Attributes:
        voltages: Bias voltages [V].
        currents: Terminal currents [A].
    """

    voltages: np.ndarray
    currents: np.ndarray

    def __post_init__(self):
        check_scan(self, "I-V trace")


class IdealityFit(Record):
    """Result of an exponential-law fit over one voltage window.

    Attributes:
        v_lo: Lower window edge [V].
        v_hi: Upper window edge [V].
        slope: OLS slope of log10(I) vs V [decades/V].
        beta: Ideality factor extracted from the slope.
        temperature: Junction temperature assumed in the fit [K].
    """

    v_lo: float
    v_hi: float
    slope: float
    beta: float
    temperature: float


# ============================================================
# Plasma dispersion
# ============================================================

def plasma_dispersion_general(
    carriers: CarrierState, wavelength: float = 1550.0
) -> tuple[float, float]:
    """Drude-model free-carrier index and absorption change.

    Evaluates the classical plasma-dispersion expressions

        dn = -q^2 lam^2 / (8 pi^2 c^2 eps0 n0) (dNe/m_ce + dNh/m_ch)
        da =  q^3 lam^2 / (4 pi^2 c^3 eps0 n0) (dNe/(m_ce^2 mu_n)
                                                + dNh/(m_ch^2 mu_p))

    Args:
        carriers: Injected carrier densities [cm^-3].
        wavelength: Probe wavelength [nm].

    Returns:
        (delta_n, delta_alpha): index change (dimensionless, <= 0) and
        added absorption [cm^-1, >= 0].

    Raises:
        DomainError: if wavelength is not positive and finite, or its
            square or a change overflows a double.
    """
    check_range("wavelength", wavelength, 0.0, lo_open=True)
    lam = wavelength * 1e-9               # nm -> m
    ne = carriers.delta_n_e * 1e6         # cm^-3 -> m^-3
    nh = carriers.delta_n_h * 1e6

    # lam * lam, not lam ** 2: a square past the largest double is inf,
    # which check_range rejects, where ** raises OverflowError.
    lam2 = lam * lam
    check_range("squared wavelength [m^2]", lam2, 0.0)

    c2 = speed_of_light ** 2
    pref_n = elementary_charge ** 2 * lam2 / (
        8.0 * math.pi ** 2 * c2 * epsilon_0 * _N0)
    pref_a = elementary_charge ** 3 * lam2 / (
        4.0 * math.pi ** 2 * c2 * speed_of_light * epsilon_0 * _N0)

    delta_n = -pref_n * (ne / _M_CE + nh / _M_CH)
    delta_alpha = pref_a * (ne / (_M_CE ** 2 * _MU_N)
                            + nh / (_M_CH ** 2 * _MU_P)) * 1e-2  # m^-1 -> cm^-1
    check_range("index change", delta_n, -math.inf)
    check_range("absorption change", delta_alpha, -math.inf)
    return delta_n, delta_alpha


def soref_1550(carriers: CarrierState) -> tuple[float, float]:
    """Soref-Bennett empirical plasma dispersion at 1550 nm.

        dn = -(8.8e-22 dNe + 8.5e-18 dNh^0.8)
        da =   8.5e-18 dNe + 6.0e-18 dNh     [cm^-1]

    Args:
        carriers: Injected carrier densities [cm^-3].

    Returns:
        (delta_n, delta_alpha) with delta_alpha in cm^-1.
    """
    ne = carriers.delta_n_e
    nh = carriers.delta_n_h
    delta_n = -(_SOREF_DN_E * ne + _SOREF_DN_H * nh ** 0.8)
    delta_alpha = _SOREF_DA_E * ne + _SOREF_DA_H * nh
    return delta_n, delta_alpha


# ============================================================
# Attenuation
# ============================================================

def attenuation_db(delta_alpha: float, length: float) -> float:
    """Decibel attenuation added by free-carrier absorption.

    Args:
        delta_alpha: Added absorption coefficient [cm^-1], >= 0.
        length: Active-region optical path length [cm], > 0.

    Returns:
        Attenuation in dB: 10 log10(e) * delta_alpha * length.

    Raises:
        DomainError: if delta_alpha is negative or length is not
            positive, or either is non-finite, or the attenuation
            overflows a double.
    """
    check_range("delta_alpha", delta_alpha, 0.0)
    check_range("length", length, 0.0, lo_open=True)
    db = 10.0 * math.log10(math.e) * delta_alpha * length
    check_range("attenuation", db, 0.0)
    return db


def attenuation_from_counts(counts_on: float, counts_off: float) -> float:
    """Attenuation inferred from detector count rates.

    Args:
        counts_on: Count rate with the VOA driven [s^-1], > 0.
        counts_off: Count rate with the VOA undriven [s^-1], > 0.

    Returns:
        -10 log10(counts_on / counts_off) in dB. Positive when the
        driven device attenuates.

    Raises:
        DomainError: if either count rate is not positive and finite.
    """
    check_range("counts_on", counts_on, 0.0, lo_open=True)
    check_range("counts_off", counts_off, 0.0, lo_open=True)
    # A difference of logarithms, not the log of a ratio that can overflow
    # or vanish: finite for any two counts, and exactly antisymmetric.
    return 10.0 * (math.log10(counts_off) - math.log10(counts_on))


# ============================================================
# Emission wavelength
# ============================================================

def bandgap_wavelength(e_g: float) -> float:
    """Photon wavelength of band-to-band recombination.

    Args:
        e_g: Bandgap or transition energy [eV], > 0.

    Returns:
        Wavelength lambda = h c / E_g in nm.

    Raises:
        DomainError: if e_g is not positive and finite, or the
            wavelength overflows a double.
    """
    check_range("e_g", e_g, 0.0, lo_open=True)
    # h c / q in eV nm first: e_g * q can vanish where e_g cannot.
    wavelength = Planck * speed_of_light / elementary_charge * 1e9 / e_g
    check_range("wavelength", wavelength, 0.0, lo_open=True)
    return wavelength


# ============================================================
# Ideality factor
# ============================================================

def fit_ideality(
    iv: IvCurve, v_lo: float, v_hi: float, temperature: float = 300.0
) -> IdealityFit:
    """Extract the diode ideality factor over a voltage window.

    Fits log10(I) = S V + const by ordinary least squares over samples
    with v_lo <= V <= v_hi, then inverts the exponential-law slope:

        beta = q log10(e) / (S k T)

    Args:
        iv: Measured I-V trace.
        v_lo: Lower window edge [V].
        v_hi: Upper window edge [V].
        temperature: Junction temperature [K], > 0.

    Returns:
        IdealityFit with the decades/V slope and beta.

    Raises:
        DomainError: for a bad window/temperature, non-positive current
            inside the window, window voltages whose least-squares sums
            overflow or underflow, a non-positive fitted slope,
            or a temperature that makes slope * k * T zero or infinite.
        InsufficientDataError: fewer than 3 samples in the window.
    """
    check_range("v_lo", v_lo, -math.inf)
    check_range("v_hi", v_hi, v_lo, lo_open=True)
    check_range("temperature", temperature, 0.0, lo_open=True)

    mask = (iv.voltages >= v_lo) & (iv.voltages <= v_hi)
    v = iv.voltages[mask]
    i = iv.currents[mask]
    if np.any(i <= 0.0):
        raise DomainError(
            f"non-positive current inside window [{v_lo}, {v_hi}]; "
            "the exponential law cannot be fitted")
    if v.size < 3:
        raise InsufficientDataError(
            f"need at least 3 samples in [{v_lo}, {v_hi}], found {v.size}")

    # Closed-form least squares about the means. As |dy| < 632, the
    # slope is at most 632 sqrt(n / ss) in size: an ss that is a finite,
    # normal double rules out any overflow, and the lost digits of an ss
    # that underflows.
    y = np.log10(i)
    with np.errstate(all="ignore"):
        dv = v - v.mean()
        ss = float(dv @ dv)
    if not sys.float_info.min <= ss < math.inf:
        raise DomainError(f"voltages in [{v_lo}, {v_hi}] overflow or underflow "
                          "the least-squares fit")
    slope = float(dv @ (y - y.mean())) / ss
    if slope <= 0.0:
        raise DomainError(f"fitted slope {slope:g} dec/V is not positive; "
                          "window does not show diode-like conduction")

    thermal = slope * Boltzmann * temperature
    if not 0.0 < thermal < math.inf:
        raise DomainError(
            f"temperature {temperature!r} K makes slope * k * T = {thermal!r}")
    beta = elementary_charge * math.log10(math.e) / thermal
    return IdealityFit(v_lo=float(v_lo), v_hi=float(v_hi), slope=slope,
                       beta=beta, temperature=float(temperature))
