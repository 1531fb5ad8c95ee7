"""Fringe extrema detection and the squared-voltage wavelength ratio."""

import math

import numpy as np
import pytest

from voaleak import (
    DomainError,
    ExtremaPair,
    FringeTrace,
    InsufficientDataError,
    center_wavelength,
    find_extrema_pair,
)
from voaleak.fringe import _local_maxima, _moving_average
from helpers import synthetic_fringe

# Fringe shapes used throughout: max at U^2 = 0.9025 (0.95 V) with the
# adjacent minimum at U^2 = 2.56 (1.60 V), and max at U^2 = 0.4356
# (0.66 V) with the minimum at 1.5876 (1.26 V). Both sit exactly on the
# 10 mV grid.
REF_C2 = math.pi / 1.6575
REF_PHI0 = 2.0 * math.pi - REF_C2 * 0.9025
UNK_C2 = math.pi / 1.152
UNK_PHI0 = 2.0 * math.pi - UNK_C2 * 0.4356


class TestFringeTrace:
    def test_short_trace_constructs(self):
        t = FringeTrace(np.array([0.0, 0.1]), np.array([10.0, 20.0]))
        assert len(t) == 2

    def test_descending_voltages_rejected(self):
        with pytest.raises(DomainError):
            FringeTrace(np.array([0.2, 0.1, 0.3]), np.zeros(3))

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            FringeTrace(np.array([0.0, 0.1]), np.array([5.0, -1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            FringeTrace(np.array([]), np.array([]))


class TestExtremaPair:
    def test_equal_voltages_rejected(self):
        with pytest.raises(DomainError):
            ExtremaPair(0.5, 0.5)

    def test_holds_values(self):
        p = ExtremaPair(0.95, 1.6)
        assert (p.u_max, p.u_min) == (0.95, 1.6)


class TestFindExtremaPair:
    def test_reference_trace(self):
        pair = find_extrema_pair(FringeTrace(*synthetic_fringe(REF_C2, REF_PHI0)))
        assert pair.u_max == pytest.approx(0.95, abs=1e-9)
        assert pair.u_min == pytest.approx(1.60, abs=1e-9)

    def test_unknown_trace(self):
        pair = find_extrema_pair(FringeTrace(*synthetic_fringe(UNK_C2, UNK_PHI0)))
        assert pair.u_max == pytest.approx(0.66, abs=1e-9)
        assert pair.u_min == pytest.approx(1.26, abs=1e-9)

    def test_off_grid_extrema_within_one_step(self):
        # analytic extrema at sqrt(0.8372) = 0.91499 and 1.58024 V
        c2 = math.pi / 1.66
        phi0 = 2.0 * math.pi - c2 * 0.8372
        pair = find_extrema_pair(FringeTrace(*synthetic_fringe(c2, phi0)))
        assert pair.u_max == pytest.approx(math.sqrt(0.8372), abs=0.01)
        assert pair.u_min == pytest.approx(math.sqrt(0.8372 + 1.66), abs=0.01)

    def test_minimum_below_maximum_fallback(self):
        # first minimum at 0.513 V, maximum at 1.70 V, next minimum
        # beyond the scan end: the lower-voltage minimum must be used
        c2 = 1.1 * math.pi / 2.89
        phi0 = 0.9 * math.pi
        pair = find_extrema_pair(FringeTrace(*synthetic_fringe(c2, phi0)))
        assert pair.u_max == pytest.approx(1.70, abs=0.011)
        assert pair.u_min == pytest.approx(math.sqrt(0.1 * 2.89 / 1.1), abs=0.011)
        assert pair.u_min < pair.u_max

    def test_monotone_trace(self):
        u = np.linspace(0.0, 2.0, 50)
        with pytest.raises(InsufficientDataError, match="monotone"):
            find_extrema_pair(FringeTrace(u, 100.0 + 40.0 * u))

    def test_boundary_maximum(self):
        # strictly falling from U=0 to an interior minimum, then rising:
        # the only maximum candidates are at the boundary
        u, counts = synthetic_fringe(math.pi / 2.25, 0.0)
        with pytest.raises(InsufficientDataError, match="scan boundary"):
            find_extrema_pair(FringeTrace(u, counts))

    def test_too_few_samples(self):
        t = FringeTrace(np.array([0.0, 0.1, 0.2, 0.3]), np.array([1.0, 3.0, 1.0, 3.0]))
        with pytest.raises(InsufficientDataError):
            find_extrema_pair(t)

    def test_even_window_rejected(self):
        trace = FringeTrace(*synthetic_fringe(REF_C2, REF_PHI0))
        with pytest.raises(DomainError):
            find_extrema_pair(trace, smooth_window=4)

    def test_count_rates_whose_window_sums_overflow(self):
        u, counts = synthetic_fringe(REF_C2, REF_PHI0)
        trace = FringeTrace(u, counts * (1e308 / counts.max()))
        with pytest.raises(DomainError, match="count rates overflow"):
            find_extrema_pair(trace)

    def test_window_one_disables_smoothing(self):
        pair = find_extrema_pair(FringeTrace(*synthetic_fringe(REF_C2, REF_PHI0)),
                                 smooth_window=1)
        assert pair.u_max == pytest.approx(0.95, abs=1e-9)


class TestCenterWavelength:
    def test_reported_extrema(self):
        lam = center_wavelength(1550.82, ExtremaPair(0.95, 1.60),
                                ExtremaPair(0.66, 1.26))
        assert lam == pytest.approx(1077.8549864253392, rel=1e-12)

    def test_identity_when_pairs_match(self):
        pair = ExtremaPair(0.95, 1.60)
        assert center_wavelength(1550.82, pair, pair) == 1550.82

    def test_homogeneous_in_lambda_ref(self):
        ref = ExtremaPair(0.95, 1.60)
        unk = ExtremaPair(0.66, 1.26)
        a = center_wavelength(1550.82, ref, unk)
        b = center_wavelength(2 * 1550.82, ref, unk)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_swap_invariance(self):
        ref = ExtremaPair(0.95, 1.60)
        unk = ExtremaPair(0.66, 1.26)
        swapped = center_wavelength(1550.82, ExtremaPair(1.60, 0.95),
                                    ExtremaPair(1.26, 0.66))
        assert swapped == center_wavelength(1550.82, ref, unk)

    def test_degenerate_reference(self):
        with pytest.raises(InsufficientDataError,
                           match="equal squared voltages"):
            center_wavelength(1550.82, ExtremaPair(0.5, -0.5),
                              ExtremaPair(0.66, 1.26))

    @pytest.mark.parametrize("lambda_ref, reference, unknown, message", [
        (1550.82, ExtremaPair(2e154, 1.0), ExtremaPair(0.66, 1.26),
         "squared extremum voltages overflow"),
        (1550.82, ExtremaPair(0.95, 1.60), ExtremaPair(0.66, 2e154),
         "squared extremum voltages overflow"),
        # Finite spans whose ratio times lambda_ref overflows.
        (1.5e308, ExtremaPair(0.66, 1.26), ExtremaPair(0.95, 1.60),
         "estimated wavelength must be finite"),
    ])
    def test_overflow_is_domain_error(self, lambda_ref, reference, unknown,
                                      message):
        with pytest.raises(DomainError, match=message):
            center_wavelength(lambda_ref, reference, unknown)

    def test_nonpositive_reference_wavelength(self):
        with pytest.raises(DomainError):
            center_wavelength(0.0, ExtremaPair(0.95, 1.60),
                              ExtremaPair(0.66, 1.26))


class TestEndToEndSynthetic:
    def test_known_wavelength_ratio_recovered(self):
        # phase coefficient scales as 1/lambda, so a source at 0.7x the
        # reference wavelength has c2/0.7; the ratio method should give
        # back 0.7 up to grid snapping
        ref = find_extrema_pair(FringeTrace(*synthetic_fringe(REF_C2, REF_PHI0)))
        unk = find_extrema_pair(
            FringeTrace(*synthetic_fringe(REF_C2 / 0.7, REF_PHI0)))
        lam = center_wavelength(1000.0, ref, unk)
        assert lam == pytest.approx(700.0, rel=0.02)

    def test_static_phase_cancels(self):
        # the interferometer's static phase moves the fringes but not
        # the squared-voltage span between adjacent extrema
        lams = []
        ref = find_extrema_pair(FringeTrace(*synthetic_fringe(REF_C2, REF_PHI0)))
        for extra in (0.0, 0.35, 0.8, 1.3):
            unk = find_extrema_pair(
                FringeTrace(*synthetic_fringe(UNK_C2, UNK_PHI0 + extra)))
            lams.append(center_wavelength(1550.82, ref, unk))
        assert max(lams) - min(lams) <= 0.02 * min(lams)


def loop_moving_average(y, window):
    """The per-sample loop `_moving_average` replaced, kept as its oracle."""
    if window == 1:
        return y.copy()
    h = window // 2
    out = np.empty_like(y)
    n = y.size
    for k in range(n):
        lo = max(0, k - h)
        hi = min(n, k + h + 1)
        out[k] = y[lo:hi].mean()
    return out


class TestMovingAverage:
    def test_bit_identical_to_loop(self):
        rng = np.random.default_rng(11)
        for window in range(1, 52, 2):
            for n in (*range(1, 60), 201, 1001):
                y = rng.uniform(0.0, 5e3, n)
                assert np.array_equal(_moving_average(y, window),
                                      loop_moving_average(y, window))

    def test_equal_windows_stay_equal(self):
        y = np.array([1.0, 0.1, 0.7, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.7, 0.1])
        s = _moving_average(y, 3)
        assert s[4] == s[5] == s[6] == s[7]


class TestLocalMaxima:
    @pytest.mark.parametrize("x, want", [
        ([0, 2, 1], [1]),
        ([0, 1, 0, 3, 0], [1, 3]),
        ([0, 2, 2, 2, 0], [2]),          # odd plateau: its middle sample
        ([0, 2, 2, 2, 2, 0], [2]),       # even plateau: (left + right) // 2
        ([2, 2, 1, 0], []),              # plateau at the left edge
        ([0, 1, 2, 2], []),              # plateau at the right edge
        ([0, 1, 2, 3, 4], []),           # monotone rising
        ([4, 3, 2, 1, 0], []),           # monotone falling
        ([1, 1, 1, 1], []),              # constant
        ([0, 2, 2, 1, 1, 3, 3, 3, 0], [1, 6]),
        ([], []),
        ([5], []),
    ])
    def test_hand_written_cases(self, x, want):
        got = _local_maxima(np.asarray(x, dtype=float))
        assert got.tolist() == want

    def test_matches_scipy_find_peaks(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(5)
        for _ in range(5000):
            # few distinct levels, so plateaus of every length occur
            x = rng.integers(0, 4, size=int(rng.integers(0, 40))).astype(float)
            assert np.array_equal(_local_maxima(x), signal.find_peaks(x)[0])
        for _ in range(200):
            u = np.linspace(0.0, 2.0, int(rng.integers(5, 400)))
            c2, phi0 = rng.uniform(1.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
            s = _moving_average(synthetic_fringe(c2, phi0, u)[1], 5)
            for y in (s, -s):
                assert np.array_equal(_local_maxima(y), signal.find_peaks(y)[0])
