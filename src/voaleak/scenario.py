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
import re
import sys
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .channel import ChannelParams, observables_for_intensity
from .decoy import DecoyObservations, check_intensities, single_photon_bounds
from .errors import (
    _INT_TYPES,
    _REAL_TYPES,
    ArrayRecord,
    ConfigurationError,
    DomainError,
    Record,
    TraceParseError,
    TraceSchemaError,
    check_range,
    interval,
    replace,
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
# The ulp of doubles in [2**1024, 2**1025), past the largest double.
_ULP_PAST_MAX = 2.0 * math.ulp(sys.float_info.max)


# ============================================================
# Configuration
# ============================================================

def _key(key: str, field: str, text: str | None = None, kind=float) -> tuple:
    # A row of _KEYS; an interval "(lo, hi]" becomes (lo, hi, True, False).
    return key, field, kind, text and interval(text)


def _windows(raw: str) -> tuple[tuple[float, float], ...]:
    # The lo:hi pairs of an ivfit.windows value; any other text raises ValueError.
    return tuple((float(lo), float(hi))
                 for lo, hi in (part.split(":") for part in raw.split(",")))


_SWEEP_KEYS = (
    _key("sweep.step", "step", "(0, inf)"),
    _key("sweep.distance_min", "distance_min", "[0, inf)"),
    _key("sweep.distance_max", "distance_max", "[0, inf)"),  # and >= min
    # 100 photons lie well inside the s <= 709 of `check_intensities`,
    # which also orders s > nu > omega >= 0 with nu + omega < s.
    _key("leakage.mu", "mu_leak", "[0, 100]"),
    _key("intensities.s", "s", "(0, 100]"),
    _key("intensities.nu", "nu"),
    _key("intensities.omega", "omega"),
    _key("conventions.f_ec", "f_ec", "[1, inf)"),
)
_SWEEP_MODES = ("passive_tha", "dual_source")  # each reads _SWEEP_KEYS
# The config keys of each mode, in the order a message names them: the key,
# the ScenarioConfig field it sets, the kind its text is read as (see `_take`)
# and its interval, if any. A field defaulting to None is required.
_KEYS = {
    "passive_tha": (*_SWEEP_KEYS, _key("conventions.p_z", "p_z", "(0, 1]")),
    "dual_source": (*_SWEEP_KEYS, _key("conventions.q_proto", "q_proto", "(0, 1]")),
    "fringe": (_key("fringe.lambda_ref_nm", "lambda_ref_nm", "(0, inf)"),
               _key("fringe.smooth_window", "smooth_window", "[1, inf)", int),
               _key("fringe.reference_trace", "reference_trace", kind=Path),
               _key("fringe.unknown_trace", "unknown_trace", kind=Path)),
    "iv_fit": (_key("ivfit.temperature", "temperature", "(0, inf)"),
               _key("ivfit.trace", "iv_trace", kind=Path),
               _key("ivfit.windows", "windows", kind=_windows)),
    "device": (),
}
MODES = tuple(_KEYS)
# The channel keys of the sweep modes, one per ChannelParams field but the
# distance, as rows of _KEYS with the interval the record declares.
_CHANNEL_KEYS = tuple(
    ("conventions.e0" if name == "e0" else f"channel.{name}", name, float, tuple(bounds))
    for name, *bounds in ChannelParams._ranges if name != "distance")
# The keys the grid rule and `check_intensities` read.
_GRID_KEYS = ("sweep.distance_min", "sweep.distance_max", "sweep.step")
_INTENSITY_KEYS = ("intensities.s", "intensities.nu", "intensities.omega")


class ScenarioConfig(Record):
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

    Only the fields the mode reads are checked: by the rows of `_KEYS`
    (and `_CHANNEL_KEYS` in a sweep mode), a None value as required and
    any other against the row's interval; then by the rules below, each
    skipped where a key it reads is bad already. One ConfigurationError
    names every bad key once, by its config key: `channel.y0`, not `y0`.
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
    lambda_ref_nm: float | None = None
    smooth_window: int = 5
    iv_trace: Path | None = None
    temperature: float = 300.0
    windows: tuple[tuple[float, float], ...] = DEFAULT_FIT_WINDOWS

    def __post_init__(self):
        self._check({})

    def _check(self, bad: dict[str, str]) -> None:
        # bad maps each key whose value `config_from_mapping` could not take
        # to its message. A rule that reads a key in bad is skipped, and
        # `_name` adds a message only for a key not yet named in bad.
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        _out_of_range(bad, self.__dict__, _KEYS[self.mode])
        if self.mode in _SWEEP_MODES:
            _out_of_range(bad, self.channel.__dict__, _CHANNEL_KEYS)
            if bad.keys().isdisjoint(_GRID_KEYS):
                self._check_grid(bad)
            try:
                if bad.keys().isdisjoint(_INTENSITY_KEYS):
                    check_intensities(self.s, self.nu, self.omega)
            except DomainError as exc:
                _name(bad, "intensities", exc)
        elif self.mode == "fringe":
            if not (isinstance(window := self.smooth_window, _INT_TYPES) and window % 2):
                _name(bad, "fringe.smooth_window", "must be an odd integer")
        elif self.mode == "iv_fit":
            if not self.windows:
                _name(bad, "ivfit.windows", "at least one lo:hi window")
            if not all(isinstance(lo, _REAL_TYPES) and isinstance(hi, _REAL_TYPES)
                       and -math.inf < lo < hi < math.inf for lo, hi in self.windows):
                _name(bad, "ivfit.windows", "each lo:hi must be finite with lo < hi")
        elif not (bad or self.emission):
            _name(bad, "emission", "at least one emission.N.* block")
        if bad:
            raise ConfigurationError(
                "invalid configuration fields: " + "; ".join(bad.values()))

    def _check_grid(self, bad: dict[str, str]) -> None:
        # The points min + k*step and the products k*step lie below
        # M = max + step and are each rounded by at most ulp(M)/2, so
        # neighbours differ by at least step - 2 ulp(M): a larger step
        # keeps every point distinct without building the grid. An M that
        # overflows lies below 2**1025, in the binade of _ULP_PAST_MAX.
        top = self.distance_max + self.step
        if self.distance_max < self.distance_min:
            _name(bad, "sweep.distance_max", "must be >= sweep.distance_min")
        elif not (steps := _grid_steps(self)) < MAX_SWEEP_POINTS:
            _name(bad, "sweep.step", f"grid exceeds {MAX_SWEEP_POINTS} points")
        elif steps >= 1.0 and not self.step > 2.0 * (
                math.ulp(top) if top < math.inf else _ULP_PAST_MAX):
            _name(bad, "sweep.step",
                  "too small for distinct grid points at these distances")
        elif (far := self.distance_min + math.floor(steps) * self.step) == math.inf:
            # The last point of `sweep_distances`.
            _name(bad, "sweep.distance_max", "last grid point overflows a double")
        else:
            for name in ("alpha_sig", "alpha_par"):
                if not math.isfinite(getattr(self.channel, name) * far):
                    _name(bad, f"channel.{name}",
                          "fiber loss overflows a double at sweep.distance_max")


def _name(bad: dict[str, str], key: str, reason) -> None:
    # A rule's message "key (reason)", unless bad names the key already.
    bad.setdefault(key, f"{key} ({reason})")


def _out_of_range(bad: dict[str, str], values: dict, rows) -> None:
    # Names in bad each key not yet there whose value is None or out of its interval.
    for key, field, _, bounds in rows:
        if values[field] is None:
            _name(bad, key, "required")
        elif bounds and key not in bad:
            lo, hi, lo_open, hi_open = bounds
            try:
                check_range(key, values[field], lo, hi, lo_open, hi_open)
            except DomainError as exc:
                bad[key] = str(exc)


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
        # A key=value line needs only its key and value stripped. A line
        # with no key before its first '=', or whose key starts with '#',
        # is blank, a comment or malformed; only those are stripped whole.
        key, sep, value = raw.partition("=")
        key = key.strip()
        if not sep or not key or key.startswith("#"):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            raise ConfigurationError(
                f"{source}:{num}: expected key=value, got {line!r}")
        if key in data:
            raise ConfigurationError(f"{source}:{num}: duplicate key {key!r}")
        data[key] = value.strip()
    return data


def apply_overrides(data: dict[str, str], overrides: Sequence[str]) -> None:
    """Apply repeatable key=value overrides in place (replace or add).

    An override stands for one config line, so it may hold no line
    break of any kind `str.splitlines` knows.
    """
    for item in overrides:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key or item.splitlines() != [item]:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        data[key] = value.strip()


def _take(data: dict, key: str, bad: dict, kind=float, base_dir: Path | str = "."):
    # key popped from data, as kind (float, int, _windows or Path); None if bad names it.
    raw = data.pop(key)
    try:
        if kind is not Path:
            return kind(raw)
        if raw and "\0" not in raw:
            return Path(base_dir) / raw  # an absolute path stays as it is
    except ValueError:
        pass
    expected = {float: "a number", int: "an integer", Path: "a file path",
                _windows: "lo:hi pairs"}[kind]
    bad[key] = f"{key}: expected {expected}, got {raw!r}"
    return None


def _take_rows(data: dict, rows, bad: dict, base_dir: Path | str) -> dict:
    # The fields of the rows whose keys data holds, but those bad names.
    return {field: value for key, field, kind, _ in rows if key in data
            and (value := _take(data, key, bad, kind, base_dir)) is not None}


_EMISSION_REQUIRED = [n for n in EmissionSpec._fields if n not in EmissionSpec._defaults]


def _take_emission_spec(data: dict, prefix: str, bad: dict) -> EmissionSpec | None:
    # The block under "leakage." or "emission.N.", a key prefix + name for
    # each EmissionSpec field. None where bad names a value or the block.
    required = [prefix + name for name in _EMISSION_REQUIRED]
    if not all(key in data for key in required):
        raise ConfigurationError(f"{' and '.join(required)} must be given together")
    values = {name: _take(data, prefix + name, bad)
              for name in EmissionSpec._fields if prefix + name in data}
    try:
        if None not in values.values():
            return EmissionSpec(**values)
    except DomainError as exc:
        bad[prefix[:-1]] = f"{prefix[:-1]}: {exc}"
    return None


def _take_emission(data: dict, bad: dict) -> tuple[EmissionSpec | None, ...]:
    indices = set()
    for key in data:
        if key.startswith("emission."):
            # N as str(int(N)) writes it, from 1: not "0", "01", "²" nor "٣".
            if not (match := re.fullmatch(r"emission\.([1-9][0-9]*)\.[^.]*", key)):
                raise ConfigurationError(
                    f"emission keys must look like emission.N.field, got {key!r}")
            indices.add(int(match[1]))
    if len(indices) != max(indices, default=0):
        raise ConfigurationError(
            "emission blocks must be numbered 1..N without gaps, got "
            f"{sorted(indices)}")
    return tuple(_take_emission_spec(data, f"emission.{n}.", bad)
                 for n in sorted(indices))


def config_from_mapping(
    data: Mapping[str, str], base_dir: Path | str = "."
) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed key=value mapping.

    Relative trace paths are resolved against base_dir. Only the keys
    the mode reads are taken; any other key is an error, so typos and
    settings meant for another mode cannot silently fall back to
    defaults or be ignored. Each key and the field it sets is a row of
    `_KEYS` (or `_CHANNEL_KEYS`), but for the emission blocks, read from
    `EmissionSpec`'s fields; a key left out keeps the field's default.
    Each value that cannot be taken is named by its key, and the config
    is checked once, so one ConfigurationError names every bad value.
    An error in the shape of the mapping raises at once: the mode, the
    emission numbering, leakage.mu beside a leakage block, a block that
    lacks an EmissionSpec field without a default, or an unrecognized key.
    """
    data = dict(data)
    if "mode" not in data:
        raise ConfigurationError("missing required key 'mode'")
    mode = data.pop("mode")

    # bad names each value that cannot be taken; its field is left out.
    bad: dict[str, str] = {}
    fields = _take_rows(data, _KEYS.get(mode, ()), bad, base_dir)
    if mode in _SWEEP_MODES:
        # Unchecked: _check checks each channel value by its key.
        fields["channel"] = unchecked(
            ChannelParams, _take_rows(data, _CHANNEL_KEYS, bad, base_dir))
        if any("leakage." + name in data for name in EmissionSpec._fields):
            if "mu_leak" in fields or "leakage.mu" in bad:
                raise ConfigurationError("give either leakage.mu or leakage."
                                         f"{'/'.join(_EMISSION_REQUIRED)}, not both")
            if spec := _take_emission_spec(data, "leakage.", bad):
                fields["mu_leak"] = mean_photon_number(spec)
    elif mode == "device":
        fields["emission"] = _take_emission(data, bad)
    config = unchecked(ScenarioConfig, {"mode": mode, **fields})
    config._check(bad)
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

class SweepResult(ArrayRecord):
    """Key-rate sweep over distance for one scenario.

    rows is a read-only (n, 7) float64 array, one row per distance, with
    the columns in RESULT_HEADER order.
    rate_baseline is the leak-free curve; rate_contaminated applies the
    configured leakage (pre-encoder coin bound or post-encoder
    dual-source model depending on the scenario mode). Rows are checked
    where they come in from a file, in `read_results`.
    """

    rows: np.ndarray


class WavelengthResult(Record):
    """Center wavelength estimate plus the extrema it came from."""

    wavelength_nm: float
    reference: ExtremaPair
    unknown: ExtremaPair


class IvFitResult(Record):
    """Ideality fits for each configured voltage window."""

    fits: tuple[IdealityFit, ...]


class LeakageResult(ArrayRecord):
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
    # Each layer runs once over the grid, in one layout for both modes:
    # intensity (s, nu, omega), leak, distance. The channel's leak axis is
    # (0, mu_leak) in dual mode and 0.0 in passive mode, which the passive
    # key rate spreads over (0, mu_leak). The rows report the observables
    # and bounds at the last leak.
    s, nu, omega = config.s, config.nu, config.omega
    grid = sweep_distances(config)
    # ScenarioConfig checked the channel, and its sweep checks keep every
    # grid point finite and >= 0, so the channel is not checked again.
    ch = replace(config.channel, distance=grid)
    leaks = np.array((0.0, config.mu_leak))[:, None]
    dual = config.mode == "dual_source"
    obs = observables_for_intensity(np.array((s, nu, omega))[:, None, None],
                                    leaks if dual else 0.0, ch)
    # Gains and QBERs of checked inputs lie in range by construction.
    (q_s, q_nu, q_omega), (e_s, e_nu, e_omega) = obs.gain, obs.qber
    decoy = unchecked(DecoyObservations, {
        "s": s, "nu": nu, "omega": omega, "q_s": q_s, "q_nu": q_nu,
        "q_omega": q_omega, "e_s": e_s, "e_nu": e_nu, "e_omega": e_omega})
    bounds = single_photon_bounds(decoy)
    if dual:
        base, leak = dual_source_key_rate(decoy, bounds, config.q_proto, config.f_ec)
    else:
        base, leak = gllp_key_rate(decoy, bounds, leaks, config.p_z, config.f_ec)
    # Transposed and copied, the seven columns give C-contiguous rows.
    table = np.array((grid, base, leak, q_s[-1], e_s[-1], bounds.y1_lower[-1],
                      bounds.e1_upper[-1])).T.copy()
    table.flags.writeable = False
    return unchecked(SweepResult, {"rows": table})


def _run_fringe(config: ScenarioConfig) -> WavelengthResult:
    reference, unknown = (
        find_extrema_pair(load_trace(path, "fringe"), config.smooth_window)
        for path in (config.reference_trace, config.unknown_trace))
    wl = center_wavelength(config.lambda_ref_nm, reference, unknown)
    return WavelengthResult(wavelength_nm=wl, reference=reference, unknown=unknown)


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


_RUNS = {**dict.fromkeys(_SWEEP_MODES, _sweep), "fringe": _run_fringe,
         "iv_fit": _run_iv_fit, "device": _run_device}


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate one validated scenario by its mode's function in `_RUNS`.

    Sweep modes return a SweepResult; fringe, iv_fit and device modes
    return their respective result records. Deterministic: identical
    configs yield identical results.
    """
    return _RUNS[config.mode](config)


# ============================================================
# Text IO
# ============================================================

# Chunks of whole rows of about _CHUNK_CELLS cells keep the arrays of
# `_format_rows` small: 8 192 cells raised the peak memory of the dense
# sweeps by 2.7 MB, 4 096 by 0.3 MB.
_VECTOR_MIN_CELLS = 600
_CHUNK_CELLS = 4096


def _render(header: str, table: np.ndarray) -> str:
    """Header line, then rows of .17g cells (which round-trip any double).

    A table of fewer than _VECTOR_MIN_CELLS cells is one `%` operation,
    the reference. A larger one goes through `_format_rows`, which
    writes the same bytes: exact integer arithmetic for every cell with
    1e-11 <= |x| < 1e15 and for zeros, and `%` for the rest (nan,
    infinities, subnormals, tiny and huge values). Against `%`,
    `_format_rows` costs a fixed 0.1 ms or so a call and less than half
    as much a cell, and about 0.4 ms more on its first call in a
    process: the two cross near 300 cells in a warm process and near
    1 000 on a first call, as in one `voaleak` run. 600 lies between.
    """
    if table.size < _VECTOR_MIN_CELLS:
        row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
        return f"{header}\n" + (row * len(table)) % tuple(table.ravel().tolist())
    return "".join([f"{header}\n", *_format_rows(table)])


_U64 = np.uint64
# The smallest double >= 10**k for k = -11..15; int / int rounds
# correctly, and nextafter lifts a quotient that fell below 10**k.
_DECADES = []
for _k in range(-11, 16):
    _num, _den = (10 ** _k, 1) if _k >= 0 else (1, 10 ** -_k)
    _x = _num / _den
    _a, _b = _x.as_integer_ratio()
    _DECADES.append(_x if _a * _den >= _num * _b else math.nextafter(_x, math.inf))
_DECADES = np.array(_DECADES)
# 5**q, each below 2**63.
_POW5 = np.array([5 ** q for q in range(28)], _U64)
# A cell is laid out as six 8-byte words: "-0.000", its first digit and
# a point; four words of four digits, each digit followed by a point;
# "e-NN", the separator and three spare bytes. _KEEP[k + 11, last] marks
# the bytes %.17g writes but the sign, where last is the position of the
# last digit kept, from 0 to 16.
_HEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), _U64)
_TAIL = np.frombuffer(b"".join(b"e-%02d,   " % abs(k) for k in range(-11, 15)), _U64)
_PAIRS = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", np.uint16)
_QUAD = np.empty((10, 10, 10, 10, 4), np.uint16)  # of 0..9999
for _j in range(4):
    _QUAD[..., _j] = _PAIRS.reshape((10,) + (1,) * (3 - _j))
_QUAD = _QUAD.reshape(10000, 4).view(_U64).ravel()
# The last nonzero digit of a 4-digit group, counted from its first
# digit, or -16 for 0; the four groups start at digits 1, 5, 9 and 13.
_LAST = np.full((10, 10, 10, 10), 3)
_LAST[..., 0] = 2
_LAST[..., 0, 0] = 1
_LAST[..., 0, 0, 0] = 0
_LAST = _LAST.ravel()
_LAST[0] = -16
_STARTS = np.array([[1], [5], [9], [13]])
_KEEP = np.zeros((26, 17, 48), bool)
for _j in range(17):
    _KEEP[:, _j, 6:7 + 2 * _j:2] = True  # the digits up to the last
_KEEP[:7, :, 40:44] = True  # "e-NN" from k = -5 down
_KEEP[..., 44] = True
for _k in range(-11, 15):
    if -5 < _k < 0:
        _KEEP[_k + 11, :, 1:2 - _k] = True  # "0." and -k - 1 zeros
    else:  # the point after the units digit, where a digit follows it
        _KEEP[_k + 11, max(_k, 0) + 1:, 7 + 2 * max(_k, 0)] = True
_KEEP = _KEEP.reshape(-1, 48)


def _mul_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as two uint64 words (hi, lo), for a < 2**60 and b < 2**63.

    From 32-bit halves, where under these bounds no partial product nor
    their middle sum overflows. Each operand is a uint64, as numpy 1.24
    makes uint64 with int64 a float64.
    """
    s32, low32 = _U64(32), _U64(2 ** 32 - 1)
    ah, al, bh, bl = a >> s32, a & low32, b >> s32, b & low32
    low, mid = al * bl, ah * bl + al * bh
    carry = ((low >> s32) + (mid & low32)) >> s32
    return ah * bh + (mid >> s32) + carry, low + (mid << s32)


def _format_rows(table: np.ndarray):
    """The rows of a table as `%.17g` writes them, one str per chunk.

    Exact integer arithmetic in numpy. For |x| = m * 2**e in 10**k <=
    |x| < 10**(k + 1) the digits are D = m * 5**q * 2**(e + q) rounded
    half to even, q = 16 - k; D never reaches 10**17, since the double
    below each 10**k here prints with seventeen 9s. Cells with 1e-11 <=
    |x| < 1e15 and zeros are formatted here, which bounds q by 27, so
    that 5**q < 2**63, and the shift -(e + q) to 1..62; the rest (nan,
    infinities, subnormals, tiny and huge values) by one `%` per chunk.
    """
    cols = table.shape[1]
    step = max(1, _CHUNK_CELLS // cols) * cols
    flat = np.ascontiguousarray(table, dtype=np.float64).ravel()
    for start in range(0, flat.size, step):
        x = flat[start:start + step]
        ax = np.abs(x)
        i = np.searchsorted(_DECADES, ax, side="right")
        fast = (i >= 1) & (i <= 26)
        k = np.where(fast, i - 12, 0)
        bits = np.where(fast, ax, 1.0).view(_U64)
        m = (bits & _U64(2 ** 52 - 1)) | _U64(2 ** 52)
        hi, lo = _mul_wide(m, _POW5[16 - k])
        one = _U64(1)
        r = (1059 + k - (bits >> _U64(52)).astype(np.int64)).astype(_U64)
        digits = (hi << (_U64(64) - r)) | (lo >> r)
        digits += (lo & ((one << r) - one)) + (digits & one) > one << (r - one)
        digits[~fast] = 0
        # The first digit, then four groups of four.
        groups = np.empty((5, x.size), _U64)
        for j in range(4, 0, -1):
            digits, groups[j] = np.divmod(digits, _U64(10 ** 4))
        groups[0] = digits
        text = np.vstack((_HEAD[groups[0]], _QUAD[groups[1:]], _TAIL[k + 11]))
        text = text.T.copy().view(np.uint8)
        text.reshape(-1, cols, 48)[:, -1, 44] = ord("\n")
        # %g keeps the integer digits and the fraction up to its last
        # nonzero digit.
        last = np.maximum((_LAST[groups[1:]] + _STARTS).max(0, initial=0), k)
        keep = _KEEP.take((k + 11) * 17 + last, axis=0)
        keep[:, 0] = np.signbit(x)
        slow = np.flatnonzero(~fast & (x != 0.0))
        if slow.size:
            # Each as `%` writes it, padded with spaces to 24 bytes, the
            # longest %.17g text.
            padded = ("%-24.17g" * slow.size) % tuple(x[slow].tolist())
            padded = np.frombuffer(padded.encode(), np.uint8).reshape(-1, 24)
            text[slow, :24] = padded
            keep[slow, :44] = False
            keep[slow, :24] = padded != ord(" ")
        yield np.compress(keep.ravel(), text.ravel()).tobytes().decode()


# The fast grammar of a table body, as `_render` and `repr` write it:
# rows of cells -?D+(.D+)?(e[+-]D+)?, each followed by "," or, the last
# of its row, by "\n". The bytes that are not digits carry the whole
# shape, and a class each: an exponent's sign becomes _EXP_SIGN, and 0
# marks a byte outside the grammar. _SHAPE[a << 5 | b << 2 | gap] is
# true where class b may follow class a in that sequence, right after
# it (gap 1) or with digits between (gap 2).
_MINUS, _PLUS, _POINT, _EXP, _EXP_SIGN, _COMMA, _NEWLINE = range(1, 8)
_CLASS = np.zeros(256, np.intp)
_CLASS[list(b"-+.e,\n")] = [_MINUS, _PLUS, _POINT, _EXP, _COMMA, _NEWLINE]
_SHAPE = np.zeros(256, bool)
for _a, _b, _gap in [
        *[(_sep, _MINUS, 1) for _sep in (_COMMA, _NEWLINE)],
        *[(_a, _b, 2) for _a in (_COMMA, _NEWLINE, _MINUS)
          for _b in (_POINT, _EXP, _COMMA, _NEWLINE)],
        *[(_POINT, _b, 2) for _b in (_EXP, _COMMA, _NEWLINE)],
        (_EXP, _EXP_SIGN, 1),
        *[(_EXP_SIGN, _b, 2) for _b in (_COMMA, _NEWLINE)]]:
    _SHAPE[_a << 5 | _b << 2 | _gap] = True
# Cells are parsed as integers: the digits without the point, then the
# exponent as a cell of its own.
_TOKENS = bytes.maketrans(b"e\n", b",,")
# A first guess of d * 10**q for q = -28..15 is float(d) * _TEN_UP[q + 28]
# / _TEN_DOWN[q + 28], in two roundings at most (float(int) rounds
# correctly).
_TEN_UP = np.array([1.0] * 28 + [float(10 ** q) for q in range(15)] + [1.0])
_TEN_DOWN = np.array([1.0] + [float(10 ** k) for k in range(27, 0, -1)] + [1.0] * 16)
# Bytes of rows per chunk, which bound the arrays of a read. Larger
# chunks make arrays above 128 KB, which glibc maps and unmaps on each
# allocation, and raise the peak memory of a read.
_READ_BYTES = 1 << 17


def _read_fast(data: bytes, start: int, width: int) -> np.ndarray | None:
    """The rows of data from offset start on, as an (n, width) array,
    or None when they are not in the fast grammar.

    The run of \\n bytes after the last row is dropped before the check,
    so a table that ends in blank lines reads as the same table without
    them. The rows go in chunks of about _READ_BYTES, each checked and
    then parsed to its final values before the next, so no parse meets a
    cell it cannot read. Only each chunk's values are kept, joined at the
    end (those of a one-chunk table are the result).
    """
    stop = len(data.rstrip(b"\n")) + 1
    if stop > len(data):
        return None
    if stop <= start:
        return np.empty((0, width))
    parts = []
    while start < stop:
        end = (data.rfind(b"\n", start, min(start + _READ_BYTES, stop)) + 1
               or data.find(b"\n", start + _READ_BYTES) + 1)
        chunk = data[start:end]
        found = _cells(chunk, width)
        if found is None:
            return None
        parts.append(_parse_rows(chunk, *found))
        start = end
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return values.reshape(-1, width)


def _cells(chunk: bytes, width: int) -> tuple[np.ndarray, ...] | None:
    """The cells of chunk, whole rows ending in \\n, or None if it is not
    in the fast grammar with rows of width cells: for each cell, whether
    it has an exponent, how many digits follow its point, whether it is
    negative, and the offset of the separator after it."""
    b = np.frombuffer(chunk, np.uint8)
    at = np.flatnonzero(b - 48 > 9)
    cls = _CLASS.take(b[at])
    signs = np.flatnonzero(cls[:-1] == _EXP) + 1
    if not (cls.all() and (cls[signs] <= _PLUS).all()):
        return None
    cls[signs] = _EXP_SIGN
    pairs = (cls[:-1] << 5) + (cls[1:] << 2) + np.minimum(at[1:] - at[:-1], 2)
    sep = np.flatnonzero(cls >= _COMMA)
    row = np.array([_COMMA] * (width - 1) + [_NEWLINE])
    # A row starts as if after a "\n".
    if not (_SHAPE[_NEWLINE << 5 | cls[0] << 2 | min(at[0] + 1, 2)]
            and _SHAPE.take(pairs).all() and sep.size % width == 0
            and (cls[sep].reshape(-1, width) == row).all()):
        return None
    # Before its separator a cell has [-] [.] [e sign]; the class before
    # the first cell's separator wraps round to the last "\n".
    ends = at[sep]
    exp = cls[sep - 1] == _EXP_SIGN
    point, digits_end = sep - 1, ends
    if signs.size:
        point = point - 2 * exp
        digits_end = at[point + 1]
    scale = (cls[point] == _POINT) * (digits_end - at[point] - 1)
    negative = np.empty(sep.size, bool)
    negative[0] = cls[0] == _MINUS
    negative[1:] = cls[sep[:-1] + 1] == _MINUS
    return exp, scale, negative, ends


def _parse_rows(chunk: bytes, exp: np.ndarray, scale: np.ndarray,
                negative: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The values of the cells of chunk, as `_cells` found them.

    Each cell takes one of three routes. A cell d * 10**q of the writer's
    fast range, or zero, gets the guess float(d) * 10**q or float(d) /
    10**-q. That is the nearest double when d < 2**53 and |q| <= 22
    (Clinger, 1990): both operands are exact, and one operation rounds.
    Any other such cell is stepped once toward the nearest double by
    `_ulp_steps`, whose exact comparison with the two midpoints around
    the guess certifies a guess it does not move. For |q| <= 22 the step
    is final: float(d) is off by at most u * d, u = 2**-53, so the exact
    product or quotient by at most u * v for v = d * 10**q, less than one
    spacing of the doubles at v, and its rounding adds at most half a
    spacing. Where the guess falls below a power of two 2**p <= v, the
    spacing there is halved, but v lies so close to 2**p that the sum
    stays under 1.5 halved spacings. Within 1.5 spacings of v, the guess
    is at most one double from the nearest. For 23 <= -q <= 27, 10**-q
    is itself rounded, so a cell the step moved is not certified; it goes
    through float() from its own bytes, as does every cell out of range
    or with more than 17 significant digits.
    """
    tokens = np.fromstring(chunk[:-1].translate(_TOKENS, b"."), np.int64, sep=",")
    q = -scale
    if tokens.size > exp.size:  # an exponent is a token of its own
        first = np.arange(exp.size) + np.cumsum(exp) - exp
        tokens, q = tokens[first], q + tokens[first + exp] * exp
    # Integer parsing turns -0 into 0 and a value beyond the int64 range
    # into its limit, which fails d < 10**17.
    d = np.abs(tokens).view(_U64)
    # q + 28, where q = -28 and 15 stand for every q out of range.
    i = np.minimum(np.maximum(q, -28), 15) + 28
    x = d.astype(np.float64) * _TEN_UP[i] / _TEN_DOWN[i]
    fast = (x < 1e15) & (d < _U64(10 ** 17)) & (i > 0) & (i < 43)
    near = np.flatnonzero(fast & (x > 0.0) & ((d >= _U64(2 ** 53)) | (i < 6)))
    d, k, guess = d[near], (28 - i[near]).view(_U64), x[near]
    step = _ulp_steps(d, k, guess)
    x[near] = (guess.view(np.int64) + step).view(np.float64)
    fast[near[(step != 0) & (k > _U64(22))]] = False
    np.negative(x, out=x, where=negative)
    slow = np.flatnonzero(~fast)
    if slow.size:
        starts = np.where(slow > 0, ends[slow - 1] + 1, 0).tolist()
        x[slow] = [float(chunk[a:b]) for a, b in zip(starts, ends[slow].tolist())]
    return x


def _ulp_steps(d: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1 where x lies below the double nearest v = d / 10**k, -1 where
    it lies above, and 0 where it is that double, ties to even.

    x = m * 2**e with 2**52 <= m < 2**53 is the nearest double when v
    lies between the midpoints (4m - 2) * 2**(e - 2) and
    (4m + 2) * 2**(e - 2), reaching one only for an even m. For m = 2**52
    the double below is half as far, and the lower midpoint is
    (4m - 1) * 2**(e - 2). v against a midpoint M * 2**(e - 2) is
    d * 2**t against M * 5**k, t = 2 - e - k, both integers. For
    0 < d < 10**17, 1 <= k <= 27 and a normal x within a few ulps of v,
    t >= 0 and both stay below 2**118.
    """
    bits = x.view(_U64)
    m = (bits & _U64(2 ** 52 - 1)) | _U64(2 ** 52)
    v = _shift_left(d, _U64(1077) - k - (bits >> _U64(52)))
    five = _POW5[k]
    # 4m * 5**k, then the midpoints 2 * 5**k above and (2 or 1) * 5**k
    # below it.
    hi, lo = _mul_wide(m << _U64(2), five)
    up = five << _U64(1)
    down = np.where(m == _U64(2 ** 52), five, up)
    above_lo = lo + up
    above = hi + (above_lo < lo).astype(_U64), above_lo
    below = hi - (lo < down).astype(_U64), lo - down
    odd = (m & _U64(1)).astype(bool)
    return (_exceeds(v, above, odd).view(np.int8)
            - _exceeds(below, v, odd).view(np.int8))


def _shift_left(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 2**s as two uint64 words (hi, lo), for 0 <= s < 128 and a
    product below 2**128. No shift count reaches 64."""
    r = s & _U64(63)
    low = a << r
    high = (a >> _U64(1)) >> (_U64(63) - r)  # a >> (64 - r), 0 for r = 0
    wide = s > _U64(63)
    return np.where(wide, low, high), np.where(wide, _U64(0), low)


def _exceeds(a, b, tie: np.ndarray) -> np.ndarray:
    """a > b, or a == b where tie, for pairs of uint64 words (hi, lo)."""
    (ah, al), (bh, bl) = a, b
    return (ah > bh) | ((ah == bh) & ((al > bl) | ((al == bl) & tie)))


def _read_table(path: Path, header: str) -> np.ndarray:
    """The rows of a table written by `_render`, as an (n, columns) array.

    Blank lines are skipped. A wrong header raises TraceSchemaError; a
    malformed row or a line that is not UTF-8 raises TraceParseError
    with its line number.

    The file is read once. When its first line is exactly the header
    and the rows below it are in the fast grammar (above `_CLASS`: width
    cells -?D+(.D+)?(e[+-]D+)?, "," between them and "\\n" after each
    row), as the package and `repr` write tables, `_read_fast` checks
    and parses them chunk by chunk, the cells as integers, and rounds
    them exactly: each value is the double float() reads from its cell,
    bit for bit, by one rounding, one certified step or float() from
    its own bytes, the one fallback (see `_parse_rows`). Blank lines
    after the last row are dropped first. Every other text goes through
    the line reader, which splits it with str.splitlines(), strips each
    line and reads each cell with float() under the cell rule of
    `_cell`, so it gives the same values and names every error. A chunk
    that fails its check sends the read there after the chunks before it
    have been parsed.
    """
    with open(path, "rb") as file:
        data = file.read()
    width = header.count(",") + 1
    head = f"{header}\n".encode()
    if data.startswith(head):
        table = _read_fast(data, len(head), width)
        if table is not None:
            return table
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # Number the bad line as splitlines() does for the others.
        num = len((exc.object[:exc.start].decode() + ".").splitlines())
        raise TraceParseError(f"{path}:{num}: not UTF-8 text ({exc.reason})",
                              line=num) from None
    if not lines or lines[0].strip() != header:
        raise TraceSchemaError(f"{path}: expected header {header!r}")
    numbered = [(num, line) for num, line
                in enumerate(map(str.strip, lines[1:]), start=2) if line]
    # A wrong field count on any line is named before a bad cell.
    for num, line in numbered:
        if line.count(",") != width - 1:
            raise TraceParseError(
                f"{path}:{num}: expected {width} comma-separated fields",
                line=num)
    values = []
    for num, line in numbered:
        try:
            values += map(_cell, line.split(","))
        except ValueError:
            raise TraceParseError(
                f"{path}:{num}: non-numeric field in {line!r}", line=num) from None
    return np.array(values, dtype=float).reshape(-1, width)


def _cell(text: str) -> float:
    """The value of one cell of the line reader: an ASCII float, with the
    whitespace around it (any str.isspace() character) ignored. float()
    alone would also take `_` between digits and non-ASCII digits, and
    refuse padding such as `\x1f`."""
    cell = text.strip()
    if "_" in cell or not cell.isascii():
        raise ValueError(f"non-numeric cell {text!r}")
    return float(cell)


# The trace kinds: the header and the record of each.
_TRACES = {"fringe": (FRINGE_HEADER, FringeTrace), "iv": (IV_HEADER, IvCurve)}


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
    if kind not in _TRACES:
        raise ConfigurationError(f"kind must be 'fringe' or 'iv', got {kind!r}")
    header, record = _TRACES[kind]
    path = Path(path)
    xs, ys = np.ascontiguousarray(_read_table(path, header).T)
    try:
        return record(xs, ys)
    except DomainError as exc:
        raise TraceSchemaError(f"{path}: {exc}") from exc


def save_trace(trace: FringeTrace | IvCurve, path: Path | str) -> None:
    """Write a trace in the same two-column format load_trace reads."""
    header = next((header for header, record in _TRACES.values()
                   if isinstance(trace, record)), None)
    if header is None:
        raise ConfigurationError(
            f"expected FringeTrace or IvCurve, got {type(trace).__name__}")
    Path(path).write_text(_render(header, np.column_stack(trace._values())))


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
