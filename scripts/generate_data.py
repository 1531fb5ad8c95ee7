#!/usr/bin/env python3
"""Regenerate the synthetic measurement files under data/.

Everything here is noise-free and deterministic so the shipped CSVs
are reproducible byte for byte. Three artifacts are produced:

* fringe_reference.csv: asymmetric-MZI heater scan with the reference
  laser at 1550.82 nm; one interior maximum (0.95 V) and minimum
  (1.60 V) inside the 0..2 V window.
* fringe_voa.csv: the same interferometer fed by the attenuator's
  emission; the first fringe peaks at 0.66 V with the adjacent
  minimum at 1.26 V, which puts the center wavelength near 1078 nm.
* iv_trace.csv: piecewise exponential diode curve at 300 K whose
  log-slope encodes ideality factors 2.6, 1.8 and 2.5 over the
  standard fit windows (0-0.45, 0.50-0.80, 0.85-0.90 V).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from voaleak import FringeTrace, IvCurve, save_trace
from voaleak.voa_physics import Boltzmann, elementary_charge

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Thermal phase is quadratic in heater voltage (Joule heating), so a
# fringe is parameterized by its rad/V^2 coefficient and a zero-bias
# offset. The coefficients below place the extrema exactly on the
# 10 mV scan grid.
U_GRID = np.linspace(0.0, 2.0, 201)
PEAK_COUNTS = 4800.0
BACKGROUND = 200.0

# reference laser: max at U^2 = 0.9025 (0.95 V), min at U^2 = 2.56 (1.60 V)
REF_C2 = math.pi / 1.6575
REF_PHI0 = 2.0 * math.pi - REF_C2 * 0.9025
# attenuator emission: max at U^2 = 0.4356 (0.66 V), min at 1.5876 (1.26 V)
VOA_C2 = math.pi / 1.152
VOA_PHI0 = 2.0 * math.pi - VOA_C2 * 0.4356


def fringe_counts(c2: float, phi0: float) -> np.ndarray:
    phase = phi0 + c2 * U_GRID ** 2
    return BACKGROUND + PEAK_COUNTS * 0.5 * (1.0 + np.cos(phase))


def iv_points(temperature: float = 300.0) -> tuple[np.ndarray, np.ndarray]:
    # Continuous piecewise log-linear current: three transport regimes
    # with ideality 2.6 / 1.8 / 2.5, joined inside the gaps between
    # the fit windows so every window sees a single pure slope.
    decades_per_volt = (elementary_charge
                        / (math.log(10.0) * Boltzmann * temperature))
    betas = (2.6, 1.8, 2.5)
    joins = (0.475, 0.825)
    v = np.arange(0, 181) * 0.005
    log_i = np.full_like(v, -12.0)
    log_i += (decades_per_volt / betas[0]) * np.minimum(v, joins[0])
    log_i += (decades_per_volt / betas[1]) * np.clip(v - joins[0], 0.0,
                                                     joins[1] - joins[0])
    log_i += (decades_per_volt / betas[2]) * np.clip(v - joins[1], 0.0, None)
    return v, 10.0 ** log_i


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    save_trace(FringeTrace(U_GRID, fringe_counts(REF_C2, REF_PHI0)),
               DATA_DIR / "fringe_reference.csv")
    save_trace(FringeTrace(U_GRID, fringe_counts(VOA_C2, VOA_PHI0)),
               DATA_DIR / "fringe_voa.csv")
    v, i = iv_points()
    save_trace(IvCurve(v, i), DATA_DIR / "iv_trace.csv")
    for name in ("fringe_reference.csv", "fringe_voa.csv", "iv_trace.csv"):
        print(f"wrote {DATA_DIR / name}")


if __name__ == "__main__":
    main()
