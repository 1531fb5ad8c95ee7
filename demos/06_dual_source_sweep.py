"""Key rate with a post-encoder leak: the dual-source flaw.

A VOA after the encoder leaks unmodulated light, so nothing about the
key escapes directly. Instead the leak rides down the fiber as a
second weak coherent source at its own wavelength, clicking in Bob's
detectors and contaminating every observable the decoy-state
estimator consumes: gains rise, QBER rises toward 1/2, and even the
calibrated signal intensity is skewed. The penalty is a rate loss at
short distance that fades as fiber loss filters the (more strongly
attenuated) parasitic band.
"""

from pathlib import Path

from voaleak import (
    RESULT_HEADER,
    ChannelParams,
    ScenarioConfig,
    calibrated_intensity,
    load_config,
    mean_photon_number,
    observables_for_intensity,
    run_scenario,
)

# The leaks of the measured emission table, as demo 04 prints them.
DEVICE = Path(__file__).resolve().parent.parent / "configs" / "device.cfg"
LEVELS = tuple(map(mean_photon_number, load_config(DEVICE).emission))
# Sweep rows are arrays in RESULT_HEADER column order.
BASELINE, CONTAMINATED = (RESULT_HEADER.split(",").index(name)
                          for name in ("rate_baseline", "rate_contaminated"))


def main():
    print(__doc__)

    # What the transmitter thinks it is sending: calibrating s from the
    # observed gain at the lab bench (L = 0) with the leak present.
    ch = ChannelParams(distance=0.0)
    for mu in (0.0, LEVELS[-1]):
        obs = observables_for_intensity(0.48, mu, ch)
        s_cal = calibrated_intensity(obs.gain, ch.eta_signal(), ch.y0)
        tag = "clean" if mu == 0.0 else f"mu_EL={mu:.4f}"
        print(f"calibrated intensity ({tag:>10}): s = {s_cal:.4f}")

    sweeps = {}
    for mu in LEVELS:
        cfg = ScenarioConfig(mode="dual_source", mu_leak=mu,
                             distance_min=0.0, distance_max=60.0, step=1.0)
        sweeps[mu] = run_scenario(cfg)

    print(f"\n{'L [km]':>7} " + " ".join(f"ratio@mu={mu:<6.4f}" for mu in LEVELS))
    for d in (0, 1, 2, 5, 10, 15, 30, 60):
        ratios = []
        for mu in LEVELS:
            row = next(r for r in sweeps[mu].rows.tolist() if r[0] == d)
            ratios.append(row[CONTAMINATED] / row[BASELINE])
        print(f"{d:>7.0f} " + " ".join(f"{r:>15.4f}" for r in ratios))

    print("""
At the transmitter output the worst-case leak costs about half the
key: the estimator sees inflated gains and errors it cannot attribute.
But the parasitic band suffers 0.8 dB/km against the signal's 0.2, and
Bob's detection path is lossier there too, so by ~15 km the
contamination is buried in the background and the ratio climbs back
above 95% by 30 km. Unlike the pre-encoder leak, this flaw hurts
exactly where metropolitan links live: at short distance.
""")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the ratio plot")
        return
    fig, ax = plt.subplots(figsize=(7, 5))
    for mu in LEVELS:
        rows = sweeps[mu].rows
        ax.plot(rows[:, 0], rows[:, CONTAMINATED] / rows[:, BASELINE],
                label=f"mu_EL = {mu:.4f}")
    ax.axhline(1.0, color="gray", lw=0.8)
    ax.set_xlabel("fiber length [km]")
    ax.set_ylabel("contaminated / baseline rate")
    ax.set_title("dual-source flaw, decoy-state BB84")
    ax.legend()
    out = Path(__file__).resolve().parent / "06_dual_source.png"
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
