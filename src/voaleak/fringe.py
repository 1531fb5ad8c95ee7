"""Interference-fringe analysis for emission wavelength estimation.

A thermo-optic Mach-Zehnder scan drives one arm's heater with voltage U;
the accumulated phase is quadratic in U (heater power goes as U^2/R), so
adjacent transmission extrema are separated by pi in phase and the
squared-voltage span between them scales linearly with wavelength. The
unknown center wavelength follows from the ratio of those spans against
a reference laser scan on the same interferometer.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    _INT_TYPES,
    ArrayRecord,
    DomainError,
    InsufficientDataError,
    Record,
    check_range,
    check_scan,
)

__all__ = ["FringeTrace", "ExtremaPair", "find_extrema_pair", "center_wavelength"]

MIN_SAMPLES = 5


class FringeTrace(ArrayRecord):
    """A heater-voltage scan of detector count rate.

    Attributes:
        voltages: Heater voltages [V], strictly increasing.
        counts: Count rates [s^-1], >= 0.
    """

    voltages: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        check_scan(self, "fringe trace")
        if np.any(self.counts < 0.0):
            raise DomainError("count rates must be >= 0")


class ExtremaPair(Record):
    """Voltages of one interference maximum and an adjacent minimum.

    Attributes:
        u_max: Heater voltage at the transmission maximum [V].
        u_min: Heater voltage at the adjacent minimum [V].
    """

    u_max: float
    u_min: float

    _intervals = {"u_max": "(-inf, inf)", "u_min": "(-inf, inf)"}

    def __post_init__(self):
        if self.u_max == self.u_min:
            raise DomainError("u_max and u_min must differ")


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    # Centered average with a window that shrinks at the scan edges,
    # so no padding artifacts are introduced. Every output is the plain
    # mean of its window (no running sum), so equal windows give equal
    # values and flat tops stay flat.
    h = window // 2
    n = y.size
    out = np.empty_like(y)
    if n >= window:
        out[h:n - h] = sliding_window_view(y, window).mean(axis=1)
    for k in (*range(min(h, n)), *range(max(h, n - h), n)):
        out[k] = y[max(0, k - h):k + h + 1].mean()
    return out


def _local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Interior local maxima and minima, from one pass over the signs of
    # the steps. A flat top or bottom counts once, at the midpoint
    # (left + right) // 2 of its samples; a plateau touching either end
    # of the trace is not an extremum.
    up, down = x[1:] > x[:-1], x[1:] < x[:-1]
    k = np.flatnonzero(up | down)
    rise = up[k]
    middle = (k[:-1] + 1 + k[1:]) // 2
    return middle[rise[:-1] > rise[1:]], middle[rise[:-1] < rise[1:]]


def find_extrema_pair(
    trace: FringeTrace,
    smooth_window: int = 5,
) -> ExtremaPair:
    """Locate the dominant fringe maximum and an adjacent minimum.

    The counts are smoothed with a centered moving average, the global
    interior maximum of the smoothed trace is taken, and the nearest
    interior local minimum is paired with it, preferring the
    higher-voltage side (the adjacent pi-shifted fringe) and falling
    back to the lower side. Returned voltages are snapped to the scan
    grid.

    Args:
        trace: Scanned fringe, at least 5 samples.
        smooth_window: Odd integer moving-average width in samples, >= 1.

    Returns:
        ExtremaPair with the chosen (u_max, u_min).

    Raises:
        InsufficientDataError: fewer than 5 samples, a monotone smoothed
            trace, or a required maximum or adjacent minimum at the scan
            boundary.
        DomainError: invalid smoothing window, or count rates whose
            window sums overflow a double.
    """
    if len(trace) < MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_SAMPLES} samples, got {len(trace)}")
    if (not isinstance(smooth_window, _INT_TYPES) or smooth_window < 1
            or smooth_window % 2 == 0):
        raise DomainError(
            f"smooth_window must be an odd integer >= 1, got {smooth_window!r}")

    u = trace.voltages
    try:
        with np.errstate(over="raise"):
            s = _moving_average(trace.counts, int(smooth_window))
    except FloatingPointError:
        raise DomainError("count rates overflow a double when smoothed") from None

    maxima, minima = _local_extrema(s)

    if maxima.size == 0:
        # Without an interior maximum, monotone means no interior minimum.
        if minima.size == 0:
            raise InsufficientDataError(
                "trace is monotone; no interference fringe found")
        raise InsufficientDataError(
            "interference maximum lies at the scan boundary")

    i_max = int(maxima[np.argmax(s[maxima])])

    above = minima[minima > i_max]
    below = minima[minima < i_max]
    if above.size:
        i_min = int(above[0])
    elif below.size:
        i_min = int(below[-1])
    else:
        raise InsufficientDataError(
            "no interior minimum adjacent to the maximum; fringe minimum "
            "lies at or beyond the scan boundary")

    return ExtremaPair(u_max=float(u[i_max]), u_min=float(u[i_min]))


def center_wavelength(
    lambda_ref: float, reference: ExtremaPair, unknown: ExtremaPair
) -> float:
    """Unknown center wavelength from squared-voltage fringe spans.

    lambda_unknown = lambda_ref * |u_max^2 - u_min^2|_unknown
                                / |u_max^2 - u_min^2|_reference

    Args:
        lambda_ref: Reference laser wavelength [nm], > 0.
        reference: Extrema pair scanned with the reference laser.
        unknown: Extrema pair scanned with the unknown source.

    Returns:
        Estimated center wavelength [nm], finite and > 0.

    Raises:
        DomainError: non-positive reference wavelength, or squared
            voltages or an estimate that overflow a double, or an
            estimate that underflows to zero.
        InsufficientDataError: reference or unknown span is zero.
    """
    check_range("lambda_ref", lambda_ref, 0.0, lo_open=True)
    try:
        den = abs(reference.u_max ** 2 - reference.u_min ** 2)
        num = abs(unknown.u_max ** 2 - unknown.u_min ** 2)
    except OverflowError:
        raise DomainError("squared extremum voltages overflow a double") from None
    for which, span in (("reference", den), ("unknown", num)):
        if span == 0.0:
            raise InsufficientDataError(
                f"{which} extrema have equal squared voltages")
    # ratio first: identical pairs then give exactly lambda_ref
    wavelength = lambda_ref * (num / den)
    check_range("estimated wavelength", wavelength, 0.0, lo_open=True)
    return wavelength
