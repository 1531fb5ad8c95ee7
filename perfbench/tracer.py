"""Spans for the traced run: kept in memory, written when the run ends.

A span is (name, start, end, parent). `install` wraps the public
functions of each layer under the names their callers look up (the
names `scenario` and `cli` import), so the package itself is unchanged.
A layer's self time is its spans' durations minus the part covered by
their child spans; over a run the self times add up to the root spans.

Run as a script, this file is the traced CLI child:

    python3 perfbench/tracer.py SPANS_JSON SRC_DIR <voaleak cli args...>

It imports voaleak under an "import" span, runs `voaleak.cli.main` with
the layers wrapped, and writes its spans to SPANS_JSON.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter

ROOT_SPAN = "op"

# (module, attribute, span name): every call the package makes across a
# layer boundary goes through one of these names.
WRAPPED = (
    ("voaleak.scenario", "parse_config_text", "scenario.config"),
    ("voaleak.scenario", "apply_overrides", "scenario.config"),
    ("voaleak.scenario", "config_from_mapping", "scenario.config"),
    ("voaleak.scenario", "load_config", "scenario.config"),
    ("voaleak.scenario", "run_scenario", "scenario.run"),
    ("voaleak.scenario", "sweep_to_text", "scenario.render"),
    ("voaleak.scenario", "emit_results", "scenario.csv_write"),
    ("voaleak.scenario", "read_results", "scenario.csv_read"),
    ("voaleak.scenario", "load_trace", "scenario.trace_load"),
    # dataclasses.replace is only used on ChannelParams in scenario.
    ("voaleak.scenario", "replace", "channel.params"),
    ("voaleak.scenario", "observables_for_intensity", "channel.observables"),
    ("voaleak.scenario", "single_photon_bounds", "decoy.bounds"),
    ("voaleak.scenario", "gllp_key_rate", "security.rate"),
    ("voaleak.scenario", "dual_source_key_rate", "security.rate"),
    ("voaleak.scenario", "mean_photon_number", "leakage.mu"),
    ("voaleak.scenario", "find_extrema_pair", "fringe.extrema"),
    ("voaleak.scenario", "center_wavelength", "fringe.extrema"),
    ("voaleak.scenario", "fit_ideality", "voa_physics.fit"),
    ("voaleak.cli", "main", "cli.main"),
    ("voaleak.cli", "load_config", "scenario.config"),
    ("voaleak.cli", "run_scenario", "scenario.run"),
    ("voaleak.cli", "sweep_to_text", "scenario.render"),
)

# Work measured at a boundary, from the call's arguments or result.
QUANTITIES = {
    "find_extrema_pair": ("fringe.samples", lambda args, result: len(args[0])),
    "load_trace": ("scenario.trace_bytes", lambda args, result: Path(args[0]).stat().st_size),
    "sweep_to_text": ("scenario.csv_bytes", lambda args, result: len(result)),
}

# Span name -> (self-time metric, unit, scale from seconds). Together
# these partition the root spans, so they add up to trace.op_ms.
SELF_TIMES = (
    (ROOT_SPAN, "op.self_ms", "ms", 1e3),
    ("import", "import.in_call_ms", "ms", 1e3),
    ("cli.main", "cli.main_self_ms", "ms", 1e3),
    ("scenario.config", "scenario.config_us", "us", 1e6),
    ("scenario.run", "scenario.run_self_ms", "ms", 1e3),
    ("scenario.render", "scenario.render_ms", "ms", 1e3),
    ("scenario.csv_write", "scenario.csv_write_ms", "ms", 1e3),
    ("scenario.csv_read", "scenario.csv_read_ms", "ms", 1e3),
    ("scenario.trace_load", "scenario.trace_load_ms", "ms", 1e3),
    ("channel.params", "channel.params_us", "us", 1e6),
    ("channel.observables", "channel.observables_us", "us", 1e6),
    ("decoy.bounds", "decoy.bounds_us", "us", 1e6),
    ("security.rate", "security.rate_us", "us", 1e6),
    ("leakage.mu", "leakage.mu_us", "us", 1e6),
    ("fringe.extrema", "fringe.extrema_ms", "ms", 1e3),
    ("voa_physics.fit", "voa_physics.fit_us", "us", 1e6),
)

# Call-count metric -> span names it counts.
CALLS = (
    ("scenario.config_calls", ("scenario.config",)),
    ("channel.calls", ("channel.params", "channel.observables")),
    ("decoy.calls", ("decoy.bounds",)),
    ("security.calls", ("security.rate",)),
    ("leakage.calls", ("leakage.mu",)),
    ("fringe.calls", ("fringe.extrema",)),
    ("voa_physics.calls", ("voa_physics.fit",)),
)


class Spans:
    """Spans of one run, in flat arrays; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.quantities: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = clock()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        i = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return i

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent),
                "quantities": dict(self.quantities)}


def _wrap(spans: Spans, fn, name: str, quantity):
    sid = spans.name_id(name)

    def traced(*args, **kwargs):
        i = spans.open(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(i)
        if quantity is not None:
            spans.quantities[quantity[0]] += quantity[1](args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(spans: Spans) -> list:
    """Wrap every boundary in WRAPPED whose module is imported.

    Returns what `uninstall` needs to put the originals back.
    """
    undo = []
    for module_name, attr, name in WRAPPED:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        fn = getattr(module, attr)
        undo.append((module, attr, fn))
        setattr(module, attr, _wrap(spans, fn, name, QUANTITIES.get(attr)))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)


def adopt_child(spans: Spans, path) -> None:
    """Attach a traced child's spans under the currently open span."""
    with open(path) as f:
        child = json.load(f)
    parent = spans.stack[-1]
    index = {}
    for k, (nid, start, end, up) in enumerate(zip(
            child["name"], child["start"], child["end"], child["parent"])):
        # CLOCK_MONOTONIC is system-wide on Linux, so child times nest
        # inside the parent's span.
        index[k] = spans.add(child["names"][nid], start, end,
                             parent if up < 0 else index[up])
    for key, value in child["quantities"].items():
        spans.quantities[key] += value


def profile(spans: Spans, ops: int) -> dict:
    """Per-operation self times, call counts and quantities, by metric."""
    import numpy as np

    name = np.frombuffer(spans.name, dtype=np.int32)
    start = np.frombuffer(spans.start)
    end = np.frombuffer(spans.end)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    dur = end - start
    own = dur.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])
    size = len(spans.names)
    self_time = np.bincount(name, weights=own, minlength=size)
    count = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=dur, minlength=size)

    def by(span: str, values):
        k = spans.ids.get(span)
        return float(values[k]) if k is not None else 0.0

    out = {}
    for span, metric, unit, scale in SELF_TIMES:
        out[metric] = (by(span, self_time) * scale / ops, unit)
    for metric, names in CALLS:
        out[metric] = (sum(by(n, count) for n in names) / ops, "count")
    for metric in ("fringe.samples", "scenario.trace_bytes", "scenario.csv_bytes"):
        unit = "count" if metric == "fringe.samples" else "bytes"
        out[metric] = (spans.quantities.get(metric, 0.0) / ops, unit)
    out["cli.main_ms"] = (by("cli.main", total) * 1e3 / ops, "ms")
    out["trace.op_ms"] = (by(ROOT_SPAN, total) * 1e3 / ops, "ms")
    out["trace.spans"] = (len(name) / ops, "count")
    return out


def self_time_sum_ms(metrics: dict) -> float:
    """Sum of the self-time metrics, in ms; equals trace.op_ms."""
    return sum(metrics[metric][0] * 1e3 / scale
               for _, metric, _, scale in SELF_TIMES)


def write_json(spans: Spans, path) -> None:
    """Write spans as one JSON object of parallel arrays."""
    with open(path, "w") as f:
        json.dump(spans.to_json(), f, separators=(",", ":"))


def write_npz(spans: Spans, path) -> None:
    """Write spans as parallel numpy arrays; a traced run has up to ~1e6."""
    import numpy as np

    np.savez(path, names=np.array(spans.names),
             name=np.frombuffer(spans.name, dtype=np.int32),
             start=np.frombuffer(spans.start), end=np.frombuffer(spans.end),
             parent=np.frombuffer(spans.parent, dtype=np.int32))


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(python: str, env: dict) -> dict:
    """Import costs of voaleak, scipy and numpy from `python -X importtime`.

    voaleak is the cumulative time of `import voaleak`; scipy and numpy
    are the sums of the self times of their modules.
    """
    child = subprocess.run([python, "-X", "importtime", "-c", "import voaleak"],
                           env=env, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"import voaleak failed: {child.stderr[-300:]}")
    own = defaultdict(int)
    total = 0
    for line in child.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        own[m[4].split(".")[0]] += int(m[1])
        if m[4] == "voaleak":
            total = int(m[2])
    return {"import.voaleak_ms": (total / 1e3, "ms"),
            "import.scipy_ms": (own["scipy"] / 1e3, "ms"),
            "import.numpy_ms": (own["numpy"] / 1e3, "ms")}


def cli_child(argv: list[str]) -> int:
    spans_path, src = argv[0], argv[1]
    sys.path.insert(0, src)
    spans = Spans()
    i = spans.open(spans.name_id("import"))
    import voaleak.cli
    spans.close(i)
    install(spans)
    rc = voaleak.cli.main(argv[2:])
    sys.stdout.flush()
    write_json(spans, spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(cli_child(sys.argv[1:]))
