"""How much light actually leaks, in photons per gate.

A single-photon detector watching the VOA's parasitic emission gives
a count rate C(U) at each drive voltage. Within one receiver gate of
width dt, the click probability is C dt, and inverting the Poisson
no-click probability turns that into a mean photon number per gate:
mu = -ln(1 - C dt). These mu values are what the security analysis
consumes, whichever side of the encoder the attenuator sits on.
"""

from pathlib import Path

from voaleak import load_config, mean_photon_number

# The measured emission table: drive voltage, count rate and gate width.
DEVICE = Path(__file__).resolve().parent.parent / "configs" / "device.cfg"
DRIVE_TABLE = load_config(DEVICE).emission


def main():
    print(__doc__)

    print(f"{'drive [V]':>10} {'rate [s^-1]':>12} {'gate [ns]':>10} "
          f"{'C dt':>9} {'mu/gate':>9}")
    for spec in DRIVE_TABLE:
        mu = mean_photon_number(spec)
        p_click = spec.count_rate * spec.pulse_width
        print(f"{spec.drive_voltage:>10.1f} {spec.count_rate:>12.2e} "
              f"{spec.pulse_width * 1e9:>10.2f} {p_click:>9.4f} "
              f"{mu:>9.4f}")

    worst = mean_photon_number(DRIVE_TABLE[-1])
    print(f"""
Three regimes: a short gate at low drive leaks mu ~ 0.005 photons per
gate; stretching the gate to 1.6 ns multiplies that by 8; cranking
the drive to 2 V more than doubles the count rate again, reaching
mu ~ {worst:.3f}. For comparison, the signal pulses themselves carry
s = 0.48 photons on average, so the worst-case leak is a fifth of a
signal. The next two demos quantify what that costs in secret key.
""")


if __name__ == "__main__":
    main()
