"""Shared oracles and synthetic-data builders for the test suite.

The oracles deliberately take different arithmetic routes than the
library (log-domain per-term yields summed over explicit Poisson
weights, and exhaustive enumeration of click/error outcomes), so
agreement is evidence of correctness rather than repetition.
"""

from __future__ import annotations

import decimal
import math

import numpy as np

from voaleak import (
    ChannelParams,
    ConfigurationError,
    DecoyObservations,
    TraceParseError,
    TraceSchemaError,
    observables_for_intensity,
)

TRUNCATION = 50

# Exact SI values (2019 redefinition).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K

# PASS/FAIL lines collected by the acceptance checks; the conftest
# terminal-summary hook prints them once the run finishes.
VERDICTS: list[str] = []


def poisson_weights(mean: float, nmax: int) -> list[float]:
    """P(N = n) for n = 0..nmax, built iteratively (no factorials)."""
    w = [math.exp(-mean)]
    for n in range(1, nmax + 1):
        w.append(w[-1] * mean / n)
    return w


def yield_oracle(i: int, j: int, eta: float, eta_par: float, y0: float) -> float:
    """Y_ij evaluated in the log domain for full relative precision."""
    t = math.log1p(-y0)
    if i:
        t += i * math.log1p(-eta)
    if j:
        t += j * math.log1p(-eta_par)
    return -math.expm1(t)


def error_numerator_oracle(
    i: int, j: int, eta: float, eta_par: float, y0: float,
    e_d: float, e0: float,
) -> float:
    """e_ij Y_ij as 1 - P(no source produces an erroneous click).

    Stabilized product form in the log domain; independent of the
    inclusion-exclusion polynomial the library evaluates.
    """
    a = -math.expm1(i * math.log1p(-eta)) if i else 0.0
    b = -math.expm1(j * math.log1p(-eta_par)) if j else 0.0
    t = math.log1p(-a * e_d) + math.log1p(-b * e0) + math.log1p(-y0 * e0)
    return -math.expm1(t)


def error_rate_enumeration(
    i: int, j: int, eta: float, eta_par: float, y0: float,
    e_d: float, e0: float,
) -> float:
    """e_ij by brute-force enumeration of the three click sources.

    Each source is absent, present-and-correct, or present-and-erroneous;
    the detector clicks if any source is present and the click is
    erroneous if any present source erred. 27 outcomes total.
    """
    a = 1.0 - (1.0 - eta) ** i
    b = 1.0 - (1.0 - eta_par) ** j
    sources = ((a, e_d), (b, e0), (y0, e0))
    click = 0.0
    err = 0.0
    for state in range(27):
        digits = (state % 3, state // 3 % 3, state // 9)
        w = 1.0
        present = False
        wrong = False
        for (p, e), d in zip(sources, digits):
            if d == 0:
                w *= 1.0 - p
            elif d == 1:
                w *= p * (1.0 - e)
                present = True
            else:
                w *= p * e
                present = True
                wrong = True
        if present:
            click += w
            if wrong:
                err += w
    if click == 0.0:
        raise ZeroDivisionError("no click outcomes to condition on")
    return err / click


def brute_force_gain(
    gamma: float, mu_el: float, ch: ChannelParams, nmax: int = TRUNCATION
) -> float:
    """Double-Poisson sum of per-photon-number yields."""
    pi = poisson_weights(gamma, nmax)
    pj = poisson_weights(mu_el, nmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    return math.fsum(
        pi[i] * pj[j] * yield_oracle(i, j, eta, etap, ch.y0)
        for i in range(nmax + 1) for j in range(nmax + 1))


def brute_force_error_gain(
    gamma: float, mu_el: float, ch: ChannelParams, nmax: int = TRUNCATION
) -> float:
    """Double-Poisson sum of per-photon-number error gains."""
    pi = poisson_weights(gamma, nmax)
    pj = poisson_weights(mu_el, nmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    return math.fsum(
        pi[i] * pj[j]
        * error_numerator_oracle(i, j, eta, etap, ch.y0, ch.e_d, ch.e0)
        for i in range(nmax + 1) for j in range(nmax + 1))


def effective_single_photon(
    ch: ChannelParams, mu_el: float, jmax: int = 60
) -> tuple[float, float, float]:
    """True (Y0_eff, Y1_eff, e1_eff) of the signal-photon-number expansion.

    With an unmodulated parasitic source of intensity mu_el present at
    every signal setting, the gains decompose as
    Q = sum_i P_i(gamma) Y_i_eff with intensity-independent
    Y_i_eff = sum_j P_j(mu_el) Y_ij, which is what decoy estimation
    bounds. Same for the error rates.
    """
    pj = poisson_weights(mu_el, jmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    y0_eff = math.fsum(pj[j] * yield_oracle(0, j, eta, etap, ch.y0)
                       for j in range(jmax + 1))
    y1_eff = math.fsum(pj[j] * yield_oracle(1, j, eta, etap, ch.y0)
                       for j in range(jmax + 1))
    eq1 = math.fsum(
        pj[j] * error_numerator_oracle(1, j, eta, etap, ch.y0, ch.e_d, ch.e0)
        for j in range(jmax + 1))
    return y0_eff, y1_eff, eq1 / y1_eff


def h2(x: float) -> float:
    """Binary entropy in bits, via natural logs and log1p."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log1p(-x)) / math.log(2.0)


def exact_statistics_rate(delta: float, ch: ChannelParams) -> float:
    """Pre-encoder GLLP rate (p_z = 1, unclipped) on the true statistics.

    The single-photon yield and error rate are the exact channel values,
    not decoy bounds; Q_s and E_s are the double-Poisson sums. The coin
    imbalance is conditioned on detection (Delta' = Delta / Y1) and the
    phase error is inflated by Lo-Preskill in its angle form,
    sqrt(e') = sqrt(e)(1 - 2 Delta') + 2 sqrt(Delta'(1 - Delta')(1 - e)),
    capped at 1/2. Signal intensity and f_ec are the ScenarioConfig defaults.
    """
    s, f_ec = 0.48, 1.2
    _, y1, e1 = effective_single_photon(ch, 0.0)
    q_s = brute_force_gain(s, 0.0, ch)
    e_s = brute_force_error_gain(s, 0.0, ch) / q_s
    d = delta / y1
    e_ph = 0.5
    if d < 0.5:
        root = (math.sqrt(e1) * (1.0 - 2.0 * d)
                + 2.0 * math.sqrt(d * (1.0 - d) * (1.0 - e1)))
        e_ph = min(root * root, 0.5)
    priv = s * math.exp(-s) * y1 * (1.0 - h2(e_ph))
    return priv - q_s * f_ec * h2(e_s)


def exact_statistics_cutoff(delta: float) -> float:
    """Distance U [km] where the exact-statistics rate reaches zero.

    Decoy bounds satisfy Y1^L <= Y1 and e1^U >= e1, and the rate rises
    with Y1 and falls with e1, so no sound estimator keeps a positive
    rate beyond U on the default channel. Found by bisection on the
    sweep span [0, 400] km.
    """
    def rate(d: float) -> float:
        return exact_statistics_rate(delta, ChannelParams(distance=d))

    lo, hi = 0.0, 400.0
    if rate(lo) <= 0.0 or rate(hi) > 0.0:
        raise ValueError("rate does not change sign on [0, 400] km")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# Polarization/phase encoding angles of the four BB84 states, which the
# closed form of `coin_imbalance` fixes.
PROTOCOL_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


def coin_imbalance_reference(mu: float) -> float:
    """The coin imbalance of `coin_imbalance`, in 60-digit decimals.

    Delta = 3/8 (1 - e^(-a mu)) + 1/8 (1 - e^(-b mu)) with
    a, b = 1 -+ 1/sqrt2, each exponential taken by `decimal` on the
    exact value of the float mu. The precision is 60 digits plus the
    number of leading zeros of mu (60 + max(0, -exponent of mu)): each
    subtraction from 1 cancels about that many digits, so it keeps 60
    significant digits for any mu, down to the least positive double,
    and the rounded result is correct to well below a double's
    precision.
    """
    m = decimal.Decimal(mu)
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, -m.adjusted())
        r = decimal.Decimal(2).sqrt() / 2
        one = decimal.Decimal(1)
        return float((3 * (one - (-(one - r) * m).exp())
                      + (one - (-(one + r) * m).exp())) / 8)


def basis_fidelity(mu: float, angles: tuple[float, ...]) -> float:
    """Fidelity of the Z- and X-basis averages of the leaked states.

    Each leaked state is the two-mode coherent state
    |sqrt(mu) cos(theta), sqrt(mu) sin(theta)>; angles[0] and angles[2]
    form the Z basis, angles[1] and angles[3] the X basis, each state
    with probability 1/2. For ensembles of pure states the fidelity is
    the trace norm of the matrix of weighted overlaps
    sqrt(p_i q_j) <psi_i|phi_j>.
    """
    def amplitudes(theta: float) -> np.ndarray:
        return math.sqrt(mu) * np.array([math.cos(theta), math.sin(theta)])

    def overlap(a: np.ndarray, b: np.ndarray) -> float:
        # <a|b> of multimode coherent states with real amplitudes.
        return math.exp(-0.5 * (a @ a + b @ b) + a @ b)

    z = [amplitudes(angles[0]), amplitudes(angles[2])]
    x = [amplitudes(angles[1]), amplitudes(angles[3])]
    m = np.array([[0.5 * overlap(a, b) for b in x] for a in z])
    return float(np.linalg.svd(m, compute_uv=False).sum())


def fidelity_imbalance(mu: float, r: float = 1.0) -> float:
    """The fidelity-optimal coin imbalance (1 - F) / 2 of a leak whose
    encoder turns every angle of `PROTOCOL_ANGLES` by r times.

    r is the encoder's phase at the leak's wavelength over its phase at
    1550 nm; r = 1 is the BB84 angles of the closed form of
    `coin_imbalance`, and at r = 2 the imbalance is (1 - e^(-mu)) / 2.
    """
    return (1.0 - basis_fidelity(mu, tuple(r * a for a in PROTOCOL_ANGLES))) / 2.0


def decoy_observations(
    ch: ChannelParams, s: float, nu: float, omega: float, mu_el: float
) -> DecoyObservations:
    """Simulated two-decoy observation set at fixed contamination."""
    qs = observables_for_intensity(s, mu_el, ch)
    qn = observables_for_intensity(nu, mu_el, ch)
    qw = observables_for_intensity(omega, mu_el, ch)
    return DecoyObservations(
        s=s, nu=nu, omega=omega,
        q_s=qs.gain, q_nu=qn.gain, q_omega=qw.gain,
        e_s=qs.qber, e_nu=qn.qber, e_omega=qw.qber)


def random_channel(rng: np.random.Generator, with_leak: bool = True):
    """One physically plausible random channel (and parasitic intensity)."""
    ch = ChannelParams(
        distance=float(rng.uniform(0.0, 100.0)),
        alpha_sig=float(rng.uniform(0.1, 1.0)),
        alpha_par=float(rng.uniform(0.1, 2.0)),
        eta_bob_sig=float(rng.uniform(0.1, 1.0)),
        eta_bob_par=float(rng.uniform(0.05, 1.0)),
        y0=float(10.0 ** rng.uniform(-9.0, -4.0)),
        e_d=float(rng.uniform(0.0, 0.12)),
        e0=0.5,
    )
    mu_el = float(rng.uniform(0.0, 0.5)) if with_leak else 0.0
    return ch, mu_el


def random_decoy_run(rng: np.random.Generator,
                     s: float = 0.48, nu: float = 0.02, omega: float = 0.001):
    """Random channel plus its simulated decoy observations.

    Every draw is kept, including lossy channels where overlapping
    background sources push a QBER slightly beyond 1/2.
    """
    ch, mu_el = random_channel(rng)
    return ch, mu_el, decoy_observations(ch, s, nu, omega, mu_el)


def shockley_curve(beta: float, temperature: float = 300.0,
                   i0: float = 1e-12, v_lo: float = 0.05, v_hi: float = 0.9,
                   n: int = 120) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free exponential diode data with a known ideality factor."""
    v = np.linspace(v_lo, v_hi, n)
    current = i0 * np.exp(ELEMENTARY_CHARGE * v
                          / (beta * BOLTZMANN * temperature))
    return v, current


def synthetic_fringe(c2: float, phi0: float,
                     u: np.ndarray | None = None,
                     peak: float = 4800.0, background: float = 200.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Cosine fringe with thermo-optic phase quadratic in voltage."""
    if u is None:
        u = np.linspace(0.0, 2.0, 201)
    counts = background + peak * 0.5 * (1.0 + np.cos(phi0 + c2 * u ** 2))
    return u, counts


# ============================================================
# Per-point reference of the sweep chain
# ============================================================

def _ref_transmittance(alpha: float, distance: float) -> float:
    return 10.0 ** (-alpha * distance / 10.0)


def _ref_error_gain(a, b, y0, e_d, e0):
    return (e_d * a + e0 * b + y0 * e0
            - e_d * e0 * a * b - y0 * e0 * e_d * a
            - y0 * e0 ** 2 * b + y0 * e0 ** 2 * e_d * a * b)


def _ref_observables(gamma, mu_el, ch, distance):
    eta = _ref_transmittance(ch.alpha_sig, distance) * ch.eta_bob_sig
    eta_par = _ref_transmittance(ch.alpha_par, distance) * ch.eta_bob_par
    q = -math.expm1(math.log1p(-ch.y0) - (gamma * eta + mu_el * eta_par))
    e = _ref_error_gain(-math.expm1(-gamma * eta), -math.expm1(-mu_el * eta_par),
                        ch.y0, ch.e_d, ch.e0) / q
    return q, min(e, 1.0)


def _ref_bounds(s, nu, om, q, e):
    (q_s, q_nu, q_om), (_, e_nu, e_om) = q, e
    y0_l = min(max((nu * q_om * math.exp(om) - om * q_nu * math.exp(nu))
                   / (nu - om), 0.0), 1.0)
    front = s / (s * (nu - om) - nu ** 2 + om ** 2)
    inner = (q_nu * math.exp(nu) - q_om * math.exp(om)
             - ((nu ** 2 - om ** 2) / s ** 2) * (q_s * math.exp(s) - y0_l))
    y1_l = min(max(front * inner, 0.0), 1.0)
    e1_u = 0.5
    if y1_l > 0.0:
        e1_u = min(max((e_nu * q_nu * math.exp(nu) - e_om * q_om * math.exp(om))
                       / ((nu - om) * y1_l), 0.0), 0.5)
    return y1_l, e1_u, y1_l * s * math.exp(-s)


def _ref_h2(x):
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _ref_gllp(s, q_s, e_s, y1, e1, coin, p_z, f_ec):
    # (rate, privacy term); coin is the imbalance Delta of the leak.
    if y1 <= 0.0:
        return 0.0, 0.0
    d = coin / y1
    ex = 0.5
    if d < 0.5:
        ex = min(e1 + 4.0 * d * (1.0 - d) * (1.0 - 2.0 * e1)
                 + 4.0 * (1.0 - 2.0 * d) * math.sqrt(d * (1.0 - d) * e1 * (1.0 - e1)),
                 0.5)
    priv = p_z ** 2 * s * math.exp(-s) * y1 * (1.0 - _ref_h2(ex))
    return max(0.0, priv - p_z ** 2 * q_s * f_ec * _ref_h2(e_s)), priv


def _ref_dual(q_s, e_s, q1, e1, q_proto, f_ec):
    priv = q1 * (1.0 - _ref_h2(e1))
    return max(0.0, q_proto * (priv - q_s * f_ec * _ref_h2(e_s))), q_proto * priv


def scalar_reference_sweep(config):
    """The rows of a sweep, one distance at a time in `math` arithmetic.

    This is the per-point chain the package ran before its formulas
    became elementwise numpy code: `10 **` transmittances, `math`
    expm1/log1p/exp/log2 and Python min/max clamps. It shares no code
    with the package, so the array sweep can be compared with it at the
    1e-12 relative tolerance of the goldens.

    The coin imbalance comes from `coin_imbalance_reference`, once per
    sweep. The closed cosh form cancels at small leaks (it is off by 6e-5
    relative at 1e-12 and returns 0 below about 1e-17), and the key rate
    still depends on Delta there through sqrt(Delta').

    Returns the results rows and, for each, the privacy terms of its
    baseline and contaminated rates (the terms a clipped rate loses).
    """
    c, ch = config, config.channel
    coins = [coin_imbalance_reference(mu) for mu in (0.0, c.mu_leak)]
    n = math.floor((c.distance_max - c.distance_min) / c.step + 1e-9) + 1
    rows, privacy = [], []
    for k in range(n):
        d = c.distance_min + k * c.step
        cases = []
        for mu_el in ((0.0, c.mu_leak) if c.mode == "dual_source" else (0.0,)):
            obs = [_ref_observables(g, mu_el, ch, d) for g in (c.s, c.nu, c.omega)]
            q, e = [o[0] for o in obs], [o[1] for o in obs]
            cases.append((q, e, _ref_bounds(c.s, c.nu, c.omega, q, e)))
        q, e, b = cases[-1]
        if c.mode == "dual_source":
            base, rate = (_ref_dual(q_[0], e_[0], b_[2], b_[1], c.q_proto, c.f_ec)
                          for q_, e_, b_ in cases)
        else:
            base, rate = (_ref_gllp(c.s, q[0], e[0], b[0], b[1], coin, c.p_z, c.f_ec)
                          for coin in coins)
        rows.append((d, base[0], rate[0], q[0], e[0], b[0], b[1]))
        privacy.append((base[1], rate[1]))
    return rows, privacy


def _ref_passive_rate(c, distance: float):
    # The passive rate of config c at distance, as a function of the coin
    # imbalance: the observables and bounds do not depend on the leak.
    obs = [_ref_observables(g, 0.0, c.channel, distance) for g in (c.s, c.nu, c.omega)]
    q, e = [o[0] for o in obs], [o[1] for o in obs]
    y1, e1, _ = _ref_bounds(c.s, c.nu, c.omega, q, e)
    return lambda coin: _ref_gllp(c.s, q[0], e[0], y1, e1, coin, c.p_z, c.f_ec)[0]


def _last_positive(rate, lo: float, hi: float) -> float:
    # Bisection of a rate positive at lo and zero at hi, until the bracket
    # spans 1e-12 of its upper end; returns its lower end.
    if rate(lo) <= 0.0 or rate(hi) > 0.0:
        raise ValueError(f"rate does not change sign on [{lo:g}, {hi:g}]")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def passive_mu_max(config, distance: float) -> float:
    """The largest leak mu at which the passive rate of config is still
    positive at distance, by bisection on the scalar chain above.

    The passive observables and bounds do not depend on the leak; mu
    enters the rate only through `coin_imbalance_reference`. The rate is
    positive at mu = 0 and zero at mu = 100, where Delta / Y1 is past
    1/2. Bisection runs until the bracket spans 1e-12 of its upper end
    and returns its lower end. No package rate, bound or observable
    function is called.
    """
    rate = _ref_passive_rate(config, distance)
    return _last_positive(lambda mu: rate(coin_imbalance_reference(mu)), 0.0, 100.0)


def passive_cutoff(config) -> float:
    """The exact cutoff [km] of config's leak: the largest distance at
    which the passive rate at config.mu_leak is still positive.

    Bisection in distance on the scalar chain above, between the ends of
    config's sweep grid, with the bracket and result of `passive_mu_max`.
    Count rates are taken as referred to the chip's output (efficiency
    1), as README states. No package function is called.
    """
    coin = coin_imbalance_reference(config.mu_leak)
    return _last_positive(lambda d: _ref_passive_rate(config, d)(coin),
                          config.distance_min, config.distance_max)


# ============================================================
# Reference table writer
# ============================================================

def render_reference(header: str, rows) -> str:
    """A table as `"{:.17g}".format` writes it, one row at a time.

    The writer the package used before it formatted whole tables with
    one `%` operation; `scenario._render` must give the same bytes.
    """
    cells = ",".join(["{:.17g}"] * (header.count(",") + 1))
    return "\n".join([header, *(cells.format(*row) for row in rows)]) + "\n"


# ============================================================
# Reference table reader
# ============================================================

def read_table_reference(path, header: str) -> np.ndarray:
    """The rows below the header line of a table, read line by line,
    each cell through bare `float()`.

    `scenario._read_table` must return the same bytes, or raise
    TraceParseError naming the same line, or TraceSchemaError when the
    first line, stripped, is not the header. Its line reader differs
    from this one only by the cell rule README documents (`_cell`):
    bare `float()` also takes `_` between digits and non-ASCII digits,
    and refuses `\x1f` as padding.
    """
    width = header.count(",") + 1
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != header:
        raise TraceSchemaError(f"{path}: header")
    numbered = [(num, line.split(",")) for num, line
                in enumerate(map(str.strip, lines[1:]), start=2) if line]
    for num, cells in numbered:
        if len(cells) != width:
            raise TraceParseError(f"{path}:{num}: field count", line=num)
    rows = []
    for num, cells in numbered:
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise TraceParseError(f"{path}:{num}: non-numeric", line=num) from None
    return np.array(rows, dtype=float).reshape(-1, width)


# ============================================================
# Reference config parser
# ============================================================

def parse_config_text_reference(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat key=value lines as the package parsed them before it
    partitioned each raw line and stripped a whole line only on the
    blank, comment and error paths.

    `scenario.parse_config_text` must return the same mapping in the same
    order, or raise ConfigurationError with the same message.
    """
    data: dict[str, str] = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"{source}:{num}: expected key=value, got {line!r}")
        if key in data:
            raise ConfigurationError(f"{source}:{num}: duplicate key {key!r}")
        data[key] = value.strip()
    return data
