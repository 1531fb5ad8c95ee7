"""Scenario configs, distance sweeps, and plain-text trace/result IO.

A scenario is described by a flat key=value text file with dotted
section prefixes, for example::

    mode = passive_tha
    channel.alpha_sig = 0.2
    intensities.s = 0.48
    leakage.mu = 0.0977
    sweep.distance_min = 0
    sweep.distance_max = 400
    sweep.step = 1

`load_config` parses and validates such a file (plus optional
key=value overrides), `run_scenario` dispatches on the mode, and the
emit/load helpers read and write the comma-separated artifacts. A
sweep evaluates each layer of the chain once over its whole distance
grid. All evaluation is pure floating-point arithmetic, so identical
configs produce byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .channel import ChannelParams, observables_for_intensity
from .decoy import DecoyObservations, check_intensities, single_photon_bounds
from .errors import (
    ConfigurationError,
    DomainError,
    TraceParseError,
    TraceSchemaError,
    unchecked,
)
from .fringe import ExtremaPair, FringeTrace, center_wavelength, find_extrema_pair
from .leakage import EmissionSpec, mean_photon_number
from .security import dual_source_key_rate, gllp_key_rate
from .voa_physics import DEFAULT_FIT_WINDOWS, IdealityFit, IvCurve, fit_ideality

__all__ = [
    "MODES",
    "FRINGE_HEADER",
    "IV_HEADER",
    "RESULT_HEADER",
    "ScenarioConfig",
    "SweepResult",
    "WavelengthResult",
    "IvFitResult",
    "LeakageResult",
    "parse_config_text",
    "apply_overrides",
    "config_from_mapping",
    "load_config",
    "run_scenario",
    "sweep_distances",
    "load_trace",
    "save_trace",
    "sweep_to_text",
    "result_to_text",
    "emit_results",
    "read_results",
]

MODES = ("passive_tha", "dual_source", "fringe", "iv_fit", "device")

FRINGE_HEADER = "heater_voltage_v,count_rate_hz"
IV_HEADER = "voltage_v,current_a"
RESULT_HEADER = ("distance_km,rate_baseline,rate_contaminated,"
                 "q_s,e_s,y1_lower,e1_upper")

# Subcommand-specific output headers (same .17g cell format as results).
WAVELENGTH_HEADER = ("wavelength_nm,ref_u_max_v,ref_u_min_v,"
                     "unk_u_max_v,unk_u_min_v")
IVFIT_HEADER = "v_lo_v,v_hi_v,slope_decades_per_v,beta,temperature_k"
LEAKAGE_HEADER = "drive_voltage_v,count_rate_hz,pulse_width_s,mu"

# Largest sweep grid a config may ask for (one row per point).
MAX_SWEEP_POINTS = 1_000_000
# Largest mean photon number a config may set for the signal, decoy or
# leaked light; well inside the 709 photons `decoy.check_intensities`
# allows the signal, whose gain the decoy bounds weigh by e^s.
MAX_INTENSITY = 100.0


# ============================================================
# Configuration
# ============================================================

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one scenario run.

    Attributes:
        mode: One of `MODES`.
        channel: Channel and receiver parameters (distance field is
            overwritten during sweeps).
        s, nu, omega: Signal and decoy intensities.
        p_z: Key-basis probability (pre-encoder analysis).
        q_proto: Sifting factor (post-encoder analysis).
        f_ec: Error-correction inefficiency.
        mu_leak: Leaked mean photon number used by the sweep modes.
        distance_min, distance_max, step: Sweep grid [km].
        emission: Driving configurations for device mode.
        reference_trace, unknown_trace, lambda_ref_nm, smooth_window:
            Fringe-mode inputs.
        iv_trace, temperature, windows: I-V fit mode inputs.
    """

    mode: str
    channel: ChannelParams = ChannelParams()
    s: float = 0.48
    nu: float = 0.02
    omega: float = 0.001
    p_z: float = 1.0
    q_proto: float = 0.5
    f_ec: float = 1.2
    mu_leak: float = 0.0
    distance_min: float = 0.0
    distance_max: float = 0.0
    step: float = 1.0
    emission: tuple[EmissionSpec, ...] = ()
    reference_trace: Path | None = None
    unknown_trace: Path | None = None
    lambda_ref_nm: float = 0.0
    smooth_window: int = 5
    iv_trace: Path | None = None
    temperature: float = 300.0
    windows: tuple[tuple[float, float], ...] = DEFAULT_FIT_WINDOWS

    def __post_init__(self):
        bad: list[str] = []
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.mode in ("passive_tha", "dual_source"):
            # Every comparison below is false for NaN, so each check
            # also rejects non-finite values.
            if not 0.0 < self.step < math.inf:
                bad.append("sweep.step (must be finite and > 0)")
            if not 0.0 <= self.distance_min < math.inf:
                bad.append("sweep.distance_min (must be finite and >= 0)")
            if not self.distance_min <= self.distance_max < math.inf:
                bad.append("sweep.distance_max (must be finite and >= distance_min)")
            # The grid can be sized once the three checks above passed.
            # Its points min + k*step and the products k*step lie below
            # M = max + step and are each rounded by at most ulp(M)/2, so
            # neighbours differ by at least step - 2 ulp(M): a larger
            # step keeps every point distinct without building the grid.
            if not bad:
                steps = _grid_steps(self)
                if not steps < MAX_SWEEP_POINTS:
                    bad.append(f"sweep.step (grid exceeds {MAX_SWEEP_POINTS} points)")
                elif steps >= 1.0 and not self.step > 2.0 * math.ulp(
                        self.distance_max + self.step):
                    bad.append("sweep.step (too small for distinct grid points "
                               "at these distances)")
                else:
                    # The fiber loss alpha * d at the last point of `sweep_distances`.
                    far = self.distance_min + math.floor(steps) * self.step
                    for name in ("alpha_sig", "alpha_par"):
                        if not math.isfinite(getattr(self.channel, name) * far):
                            bad.append(f"channel.{name} (fiber loss overflows "
                                       "a double at sweep.distance_max)")
            if not 0.0 <= self.mu_leak <= MAX_INTENSITY:
                bad.append(f"leakage.mu (must lie in [0, {MAX_INTENSITY:g}])")
            if self.s > MAX_INTENSITY:
                bad.append(f"intensities.s (must be <= {MAX_INTENSITY:g})")
            try:
                check_intensities(self.s, self.nu, self.omega)
            except DomainError as exc:
                bad.append(f"intensities ({exc})")
            if self.mode == "passive_tha" and not 0.0 < self.p_z <= 1.0:
                bad.append("conventions.p_z (must lie in (0, 1])")
            if self.mode == "dual_source" and not 0.0 < self.q_proto <= 1.0:
                bad.append("conventions.q_proto (must lie in (0, 1])")
            if not 1.0 <= self.f_ec < math.inf:
                bad.append("conventions.f_ec (must be finite and >= 1)")
        elif self.mode == "fringe":
            if self.reference_trace is None:
                bad.append("fringe.reference_trace (required)")
            if self.unknown_trace is None:
                bad.append("fringe.unknown_trace (required)")
            if not (math.isfinite(self.lambda_ref_nm) and self.lambda_ref_nm > 0.0):
                bad.append("fringe.lambda_ref_nm (must be > 0)")
            if self.smooth_window < 1 or self.smooth_window % 2 == 0:
                bad.append("fringe.smooth_window (must be odd and >= 1)")
        elif self.mode == "iv_fit":
            if self.iv_trace is None:
                bad.append("ivfit.trace (required)")
            if not (math.isfinite(self.temperature) and self.temperature > 0.0):
                bad.append("ivfit.temperature (must be > 0)")
            if not self.windows:
                bad.append("ivfit.windows (at least one lo:hi window)")
            if not all(-math.inf < lo < hi < math.inf for lo, hi in self.windows):
                bad.append("ivfit.windows (each lo:hi must be finite with lo < hi)")
        elif self.mode == "device":
            if not self.emission:
                bad.append("emission (at least one emission.N.* block)")
        if bad:
            raise ConfigurationError(
                "invalid configuration fields: " + "; ".join(bad))


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat key=value lines into an ordered mapping.

    Blank lines and lines starting with '#' are skipped. Keys must be
    unique.

    Raises:
        ConfigurationError: on a malformed line or duplicate key, with
            the line number in the message.
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


def apply_overrides(data: dict[str, str], overrides: Sequence[str]) -> None:
    """Apply repeatable key=value overrides in place (replace or add)."""
    for item in overrides:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        data[key] = value.strip()


def _take_number(data: dict[str, str], key: str, default: float, kind=float) -> float:
    if key not in data:
        return default
    raw = data.pop(key)
    try:
        return kind(raw)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise ConfigurationError(f"{key}: expected {expected}, got {raw!r}") from None


def _take_path(data: dict[str, str], key: str, base_dir: Path) -> Path | None:
    if key not in data:
        return None
    raw = data.pop(key)
    if not raw or "\0" in raw:
        raise ConfigurationError(f"{key}: expected a file path, got {raw!r}")
    p = Path(raw)
    return p if p.is_absolute() else base_dir / p


def _parse_windows(raw: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in raw.split(","):
        lo, sep, hi = part.strip().partition(":")
        if not sep:
            raise ConfigurationError(
                f"ivfit.windows: expected lo:hi entries, got {part.strip()!r}")
        try:
            out.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigurationError(
                f"ivfit.windows: non-numeric window edge in {part.strip()!r}"
            ) from None
    return tuple(out)


_CHANNEL_FIELDS = (
    "alpha_sig", "alpha_par", "eta_bob_sig", "eta_bob_par", "y0", "e_d")


def _take_channel(data: dict[str, str]) -> ChannelParams:
    # A dataclass keeps its field defaults as class attributes.
    defaults = ChannelParams
    kwargs = {name: _take_number(data, f"channel.{name}", getattr(defaults, name))
              for name in _CHANNEL_FIELDS}
    e0 = _take_number(data, "conventions.e0", defaults.e0)
    try:
        return ChannelParams(distance=0.0, e0=e0, **kwargs)
    except DomainError as exc:
        raise ConfigurationError(f"channel: {exc}") from exc


def _take_emission_spec(data: dict[str, str], prefix: str) -> EmissionSpec:
    try:
        return EmissionSpec(
            drive_voltage=_take_number(data, f"{prefix}drive_voltage", 0.0),
            count_rate=_take_number(data, f"{prefix}count_rate", 0.0),
            pulse_width=_take_number(data, f"{prefix}pulse_width", 0.0),
        )
    except DomainError as exc:
        raise ConfigurationError(f"{prefix[:-1]}: {exc}") from exc


def _take_leakage(data: dict[str, str]) -> float:
    has_mu = "leakage.mu" in data
    has_counts = "leakage.count_rate" in data or "leakage.pulse_width" in data
    if has_mu and has_counts:
        raise ConfigurationError(
            "give either leakage.mu or leakage.count_rate/pulse_width, not both")
    if has_mu:
        return _take_number(data, "leakage.mu", 0.0)
    if not has_counts:
        return 0.0
    if "leakage.count_rate" not in data or "leakage.pulse_width" not in data:
        raise ConfigurationError(
            "leakage.count_rate and leakage.pulse_width must be given together")
    return mean_photon_number(_take_emission_spec(data, "leakage."))


def _take_emission(data: dict[str, str]) -> tuple[EmissionSpec, ...]:
    indices = set()
    for key in data:
        if key.startswith("emission."):
            parts = key.split(".")
            # isdecimal, not isdigit: int() rejects digits such as "²".
            if len(parts) != 3 or not parts[1].isdecimal():
                raise ConfigurationError(
                    f"emission keys must look like emission.N.field, got {key!r}")
            indices.add(int(parts[1]))
    if not indices:
        return ()
    if min(indices) != 1 or max(indices) != len(indices):
        raise ConfigurationError(
            "emission blocks must be numbered 1..N without gaps, got "
            f"{sorted(indices)}")
    specs = []
    for n in sorted(indices):
        prefix = f"emission.{n}."
        if f"{prefix}count_rate" not in data or f"{prefix}pulse_width" not in data:
            raise ConfigurationError(
                f"emission block {n} needs count_rate and pulse_width")
        specs.append(_take_emission_spec(data, prefix))
    return tuple(specs)


def config_from_mapping(
    data: Mapping[str, str], base_dir: Path | str = "."
) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed key=value mapping.

    Relative trace paths are resolved against base_dir. Only the keys
    the mode reads are taken; any other key is an error, so typos and
    settings meant for another mode cannot silently fall back to
    defaults or be ignored. Missing keys take ScenarioConfig's field
    defaults, which a dataclass keeps as class attributes;
    ScenarioConfig checks the mode.
    """
    data = dict(data)
    base_dir = Path(base_dir)
    if "mode" not in data:
        raise ConfigurationError("missing required key 'mode'")
    mode = data.pop("mode")

    defaults = ScenarioConfig
    fields = {}
    if mode in ("passive_tha", "dual_source"):
        fields = dict(
            channel=_take_channel(data),
            s=_take_number(data, "intensities.s", defaults.s),
            nu=_take_number(data, "intensities.nu", defaults.nu),
            omega=_take_number(data, "intensities.omega", defaults.omega),
            f_ec=_take_number(data, "conventions.f_ec", defaults.f_ec),
            mu_leak=_take_leakage(data),
            distance_min=_take_number(data, "sweep.distance_min", defaults.distance_min),
            distance_max=_take_number(data, "sweep.distance_max", defaults.distance_max),
            step=_take_number(data, "sweep.step", defaults.step),
        )
        if mode == "passive_tha":
            fields["p_z"] = _take_number(data, "conventions.p_z", defaults.p_z)
        else:
            fields["q_proto"] = _take_number(data, "conventions.q_proto", defaults.q_proto)
    elif mode == "fringe":
        fields = dict(
            reference_trace=_take_path(data, "fringe.reference_trace", base_dir),
            unknown_trace=_take_path(data, "fringe.unknown_trace", base_dir),
            lambda_ref_nm=_take_number(data, "fringe.lambda_ref_nm", defaults.lambda_ref_nm),
            smooth_window=_take_number(
                data, "fringe.smooth_window", defaults.smooth_window, int),
        )
    elif mode == "iv_fit":
        fields = dict(
            iv_trace=_take_path(data, "ivfit.trace", base_dir),
            temperature=_take_number(data, "ivfit.temperature", defaults.temperature),
            windows=(_parse_windows(data.pop("ivfit.windows"))
                     if "ivfit.windows" in data else defaults.windows),
        )
    elif mode == "device":
        fields = dict(emission=_take_emission(data))
    config = ScenarioConfig(mode=mode, **fields)
    if data:
        raise ConfigurationError(
            "unrecognized keys: " + ", ".join(sorted(data)))
    return config


def load_config(
    path: Path | str, overrides: Sequence[str] = ()
) -> ScenarioConfig:
    """Load, override, and validate a UTF-8 scenario config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None
    data = parse_config_text(text, source=str(path))
    apply_overrides(data, overrides)
    return config_from_mapping(data, base_dir=path.parent)


# ============================================================
# Results
# ============================================================

# The result tables below are arrays, so they take eq=False: the __eq__
# a dataclass generates would compare them with `==`, whose truth value
# is ambiguous.
@dataclass(frozen=True, eq=False)
class SweepResult:
    """Key-rate sweep over distance for one scenario.

    rows is a read-only (n, 7) float64 array, one row per distance, with
    the columns in RESULT_HEADER order.
    rate_baseline is the leak-free curve; rate_contaminated applies the
    configured leakage (pre-encoder coin bound or post-encoder
    dual-source model depending on the scenario mode). Rows are checked
    where they come in from a file, in `read_results`.
    """

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class WavelengthResult:
    """Center wavelength estimate plus the extrema it came from."""

    wavelength_nm: float
    reference: ExtremaPair
    unknown: ExtremaPair


@dataclass(frozen=True)
class IvFitResult:
    """Ideality fits for each configured voltage window."""

    fits: tuple[IdealityFit, ...]


@dataclass(frozen=True, eq=False)
class LeakageResult:
    """Leaked mean photon number per driving configuration.

    rows is a read-only (n, 4) float64 array, one row per emission block,
    with the columns in LEAKAGE_HEADER order.
    """

    rows: np.ndarray


ScenarioResult = Union[SweepResult, WavelengthResult, IvFitResult, LeakageResult]


# ============================================================
# Scenario evaluation
# ============================================================

def _grid_steps(config: ScenarioConfig) -> float:
    # Steps from min to max; a small relative tolerance keeps an
    # intended endpoint from being dropped to floating-point rounding.
    return (config.distance_max - config.distance_min) / config.step + 1e-9


def sweep_distances(config: ScenarioConfig) -> np.ndarray:
    """Arithmetic distance grid min, min+step, ... capped at max.

    Each point is computed as min + k*step (no cumulative summation),
    so the grid is exactly reproducible.
    """
    n = math.floor(_grid_steps(config)) + 1
    return config.distance_min + np.arange(n) * config.step


def _sweep(config: ScenarioConfig) -> SweepResult:
    # Pre-encoder leakage never reaches Bob, so passive observables are
    # leak-free and only the privacy amplification term changes.
    # Post-encoder leakage rides down the fiber with every intensity
    # setting, so dual-mode observables are contaminated; they are
    # computed even at zero leak, so that path is always exercised.
    #
    # Each layer runs once over the grid. The intensities s, nu, omega
    # lie on the leading axis of the observables; the zero-leak and the
    # leaky case lie on the next axis in dual mode, and on the leading
    # axis of the key rates in passive mode.
    dual = config.mode == "dual_source"
    s, nu, omega = config.s, config.nu, config.omega
    grid = sweep_distances(config)
    ch = replace(config.channel, distance=grid)
    intensities = np.array((s, nu, omega))[:, None]
    leaks = np.array((0.0, config.mu_leak))[:, None]
    if dual:
        obs = observables_for_intensity(intensities[..., None], leaks, ch)
    else:
        obs = observables_for_intensity(intensities, 0.0, ch)
    # Gains and QBERs of checked inputs lie in range by construction.
    (q_s, q_nu, q_omega), (e_s, e_nu, e_omega) = obs.gain, obs.qber
    decoy = unchecked(DecoyObservations, s=s, nu=nu, omega=omega,
                      q_s=q_s, q_nu=q_nu, q_omega=q_omega,
                      e_s=e_s, e_nu=e_nu, e_omega=e_omega)
    bounds = single_photon_bounds(decoy)
    columns = (decoy.q_s, decoy.e_s, bounds.y1_lower, bounds.e1_upper)
    if dual:
        base, leak = dual_source_key_rate(decoy, bounds, config.q_proto, config.f_ec)
        # The rows report the contaminated observables and bounds.
        columns = [column[1] for column in columns]
    else:
        base, leak = gllp_key_rate(decoy, bounds, leaks, config.p_z, config.f_ec)
    table = np.column_stack((grid, base, leak, *columns))
    table.flags.writeable = False
    return SweepResult(table)


def _run_fringe(config: ScenarioConfig) -> WavelengthResult:
    reference = find_extrema_pair(
        load_trace(config.reference_trace, "fringe"), config.smooth_window)
    unknown = find_extrema_pair(
        load_trace(config.unknown_trace, "fringe"), config.smooth_window)
    wl = center_wavelength(config.lambda_ref_nm, reference, unknown)
    return WavelengthResult(wavelength_nm=wl, reference=reference,
                            unknown=unknown)


def _run_iv_fit(config: ScenarioConfig) -> IvFitResult:
    iv = load_trace(config.iv_trace, "iv")
    fits = tuple(fit_ideality(iv, lo, hi, config.temperature)
                 for lo, hi in config.windows)
    return IvFitResult(fits=fits)


def _run_device(config: ScenarioConfig) -> LeakageResult:
    table = np.array([
        (spec.drive_voltage, spec.count_rate, spec.pulse_width,
         mean_photon_number(spec))
        for spec in config.emission])
    table.flags.writeable = False
    return LeakageResult(table)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate one validated scenario.

    Sweep modes return a SweepResult; fringe, iv_fit and device modes
    return their respective result records. Deterministic: identical
    configs yield identical results.
    """
    if config.mode in ("passive_tha", "dual_source"):
        return _sweep(config)
    if config.mode == "fringe":
        return _run_fringe(config)
    if config.mode == "iv_fit":
        return _run_iv_fit(config)
    return _run_device(config)


# ============================================================
# Text IO
# ============================================================

def _render(header: str, table: np.ndarray) -> str:
    """Header line, then rows of .17g cells (which round-trip any double)."""
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return f"{header}\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _read_table(path: Path, header: str) -> np.ndarray:
    """The rows of a table written by `_render`, as an (n, columns) array.

    Blank lines are skipped. A wrong header raises TraceSchemaError; a
    malformed row or a line that is not UTF-8 raises TraceParseError
    with its line number.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # Number the bad line as splitlines() does for the others.
        num = len((exc.object[:exc.start].decode() + ".").splitlines())
        raise TraceParseError(f"{path}:{num}: not UTF-8 text ({exc.reason})",
                              line=num) from None
    if not lines or lines[0].strip() != header:
        raise TraceSchemaError(f"{path}: expected header {header!r}")
    width = header.count(",") + 1
    rows = list(filter(None, map(str.strip, lines[1:])))
    if not rows:
        # loadtxt warns on an empty input; a header-only table is valid.
        return np.empty((0, width))
    try:
        # One C-level parse of the whole table.
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] == width:
            return values
    except ValueError:
        pass
    # Rescan only on failure, to name the bad line: first a wrong field
    # count on any line, then the first row the same parser rejects.
    numbered = [(num, line) for num, line
                in enumerate(map(str.strip, lines[1:]), start=2) if line]
    for num, line in numbered:
        if line.count(",") != width - 1:
            raise TraceParseError(
                f"{path}:{num}: expected {width} comma-separated fields",
                line=num)
    # Rows parse independently, so the shortest failing prefix ends at
    # the first bad row. Bisect for it: rows[:lo] parse and rows[:hi]
    # fail, so only rows[lo:mid] need parsing at each step. The row
    # found must then fail on its own.
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parses(rows[lo:mid]):
            lo = mid
        else:
            hi = mid
    num, line = numbered[hi - 1]
    if not _parses([line]):
        raise TraceParseError(
            f"{path}:{num}: non-numeric field in {line!r}", line=num)
    raise TraceParseError(f"{path}: rows could not be parsed")


def _parses(rows: list[str]) -> bool:
    try:
        np.loadtxt(rows, delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def load_trace(path: Path | str, kind: str) -> FringeTrace | IvCurve:
    """Load a two-column comma-separated trace file.

    Args:
        path: File to read.
        kind: "fringe" (header heater_voltage_v,count_rate_hz) or
            "iv" (header voltage_v,current_a).

    Returns:
        FringeTrace or IvCurve matching kind.

    Raises:
        ConfigurationError: unknown kind.
        TraceSchemaError: wrong header or a constraint violation such
            as non-increasing voltages.
        TraceParseError: malformed data row or non-UTF-8 text (carries
            the line number).
    """
    if kind not in ("fringe", "iv"):
        raise ConfigurationError(f"kind must be 'fringe' or 'iv', got {kind!r}")
    path = Path(path)
    table = _read_table(path, FRINGE_HEADER if kind == "fringe" else IV_HEADER)
    xs, ys = np.ascontiguousarray(table.T)
    try:
        if kind == "fringe":
            return FringeTrace(xs, ys)
        return IvCurve(xs, ys)
    except DomainError as exc:
        raise TraceSchemaError(f"{path}: {exc}") from exc


def save_trace(trace: FringeTrace | IvCurve, path: Path | str) -> None:
    """Write a trace in the same two-column format load_trace reads."""
    if isinstance(trace, FringeTrace):
        header, xs, ys = FRINGE_HEADER, trace.voltages, trace.counts
    elif isinstance(trace, IvCurve):
        header, xs, ys = IV_HEADER, trace.voltages, trace.currents
    else:
        raise ConfigurationError(
            f"expected FringeTrace or IvCurve, got {type(trace).__name__}")
    Path(path).write_text(_render(header, np.column_stack((xs, ys))))


def sweep_to_text(result: SweepResult) -> str:
    """Render a sweep as the canonical results CSV text."""
    return _render(RESULT_HEADER, result.rows)


def result_to_text(result: ScenarioResult) -> str:
    """Render any scenario result as its comma-separated table text."""
    if isinstance(result, SweepResult):
        return sweep_to_text(result)
    if isinstance(result, WavelengthResult):
        ref, unk = result.reference, result.unknown
        return _render(WAVELENGTH_HEADER, np.array([(
            result.wavelength_nm, ref.u_max, ref.u_min, unk.u_max, unk.u_min)]))
    if isinstance(result, IvFitResult):
        return _render(IVFIT_HEADER, np.array([
            (f.v_lo, f.v_hi, f.slope, f.beta, f.temperature)
            for f in result.fits]))
    if isinstance(result, LeakageResult):
        return _render(LEAKAGE_HEADER, result.rows)
    raise TypeError(f"unknown result type {type(result).__name__}")


def emit_results(result: SweepResult, path: Path | str) -> None:
    """Write the results table; see RESULT_HEADER for the schema."""
    Path(path).write_text(sweep_to_text(result))


def read_results(path: Path | str) -> SweepResult:
    """Reload a results table written by emit_results.

    Raises:
        TraceSchemaError: wrong header, a non-finite cell, distances
            that are not strictly ascending, or a negative key rate.
        TraceParseError: malformed data row or non-UTF-8 text (carries
            the line number).
    """
    path = Path(path)
    table = _read_table(path, RESULT_HEADER)
    distances = table[:, 0]
    if not np.isfinite(table).all():
        raise TraceSchemaError(f"{path}: every cell must be finite")
    if not (distances[1:] > distances[:-1]).all():
        raise TraceSchemaError(f"{path}: distances must be strictly ascending")
    if not (table[:, 1:3] >= 0.0).all():
        raise TraceSchemaError(f"{path}: key rates must be >= 0")
    table.flags.writeable = False
    return SweepResult(table)
