"""Run one voaleak benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

Run from the root of a voaleak checkout; the package is imported from
its src/ directory. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
a run with spans at every layer boundary. See perfbench/README.md.

Times are reported at reference speed. The machine this was written on
(2 shared cores) changes speed by up to 2x, in steps that last from a
tenth of a second to tens of seconds, for every process alike. So a
fixed pure-Python kernel is timed every REF_EVERY_S through the run, and
each measured time is scaled by REF_NOMINAL_S over the kernel's time at
that moment. The raw wall times go to the result file as well.
"""

import math
import os
import time

clock = time.perf_counter

# One CPU for this process and its children, so that the reference
# kernel below times the CPU the workload runs on.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

REF_NOMINAL_S = 0.002  # the kernel's time at reference speed
REF_EVERY_S = 0.05


def reference_s(repeat: int = 1) -> float:
    """Wall time of the reference kernel: fixed pure-Python float work.

    With repeat > 1, the median of that many timings.
    """
    times = []
    for _ in range(repeat):
        t = clock()
        x = 0.0
        for i in range(20_000):
            x += math.sqrt(i) * 0.5
        times.append(clock() - t)
    return sorted(times)[len(times) // 2]


REF_START = reference_s(repeat=3)
T0 = clock()  # set-up time counts from here

# One BLAS thread, here and in every child (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli", "sweep_dense", "scan_many", "trace_fit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


class Speed:
    """Reference-kernel times sampled through a run.

    Interval k runs from sample k to sample k + 1; a time measured in it
    is scaled by REF_NOMINAL_S over the mean of the two samples.
    """

    def __init__(self):
        self.samples = [reference_s(repeat=3)]
        self.last = clock()

    def interval(self) -> int:
        return len(self.samples) - 1

    def tick(self, force: bool = False) -> None:
        if force or clock() - self.last >= REF_EVERY_S:
            self.samples.append(reference_s(repeat=3))
            self.last = clock()

    def factor(self, k: int) -> float:
        return 2.0 * REF_NOMINAL_S / (self.samples[k] + self.samples[k + 1])


class Tally:
    """What a set of rounds did: operations, failures, times, work."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []  # raw wall time of each operation
        self.op_interval: list[int] = []  # its Speed interval
        self.op_work: list[float] = []  # work completed (0 if it failed)
        self.rounds: list[tuple[int, int]] = []  # op index range of each round
        self.errors: list[str] = []

    def scaled_s(self, speed: Speed) -> list[float]:
        return [t * speed.factor(k) for t, k in zip(self.op_s, self.op_interval)]


def run_round(wl, tally: Tally, speed: Speed, spans=None) -> None:
    """One round of the workload's operations, each checked after it ran."""
    first = len(tally.op_s)
    root = spans.name_id(tracer.ROOT_SPAN) if spans is not None else None
    for k, op in enumerate(wl.ops):
        tally.attempted += 1
        i = spans.open(root) if spans is not None else None
        t = clock()
        try:
            out = op()
        except Exception as exc:  # a fault of the program: count it, go on
            out = exc
        dt = clock() - t
        if spans is not None:
            spans.close(i)
        tally.op_s.append(dt)
        tally.op_interval.append(speed.interval())
        if isinstance(out, Exception):
            tally.failed += 1
            tally.op_work.append(0.0)
            tally.errors.append(f"op {k}: {type(out).__name__}: {out}")
        else:
            tally.op_work.append(wl.work[k])
            wl.check(k, out)
        speed.tick()
    tally.rounds.append((first, len(tally.op_s)))


def setup(args, ctx):
    """Import, generate inputs and run one warm-up operation.

    Returns the workload, the warm-up output and the set-up time at
    reference speed.
    """
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ctx)
    warm = wl.ops[0]()
    raw = clock() - T0
    return wl, warm, raw * 2.0 * REF_NOMINAL_S / (REF_START + reference_s(repeat=3))


def setup_probe_times(args, n: int) -> list[float]:
    """Set-up times of n fresh processes, one after another."""
    times = []
    for _ in range(n):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr[-500:]}")
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "voaleak" / "__init__.py").is_file():
        print(f"error: {SRC}/voaleak not found; run from a voaleak checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    from workloads import CheckFailed, Context

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        ctx = Context(root=ROOT, work=work, env=env)
        wl, warm, setup_s = setup(args, ctx)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        correct, message = True, ""
        try:
            wl.check(0, warm)
            if args.trace == 0:
                result = untraced(args, wl, setup_s)
            else:
                result = traced(args, wl, env)
        except CheckFailed as exc:
            correct, message = False, str(exc)
            result = {"attempted": 1, "failed": 0, "metrics": {}, "raw": {}, "errors": []}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(f"check failed: {message}", file=sys.stderr)
    for line in result.pop("errors")[:5]:
        print(f"operation failed: {line}", file=sys.stderr)
    raw = result.pop("raw")
    out = {"correct": correct, **result}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**out, "raw_wall": raw}, indent=1) + "\n")
    print(json.dumps(out))
    return 0


def as_metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def untraced(args, wl, setup_main_s: float) -> dict:
    # Set-up is timed three times (this process and two fresh ones) and
    # the median reported.
    setups = [setup_main_s] + setup_probe_times(args, 2)
    speed, tally = Speed(), Tally()
    start = clock()
    while clock() - start < args.seconds:
        run_round(wl, tally, speed)
    speed.tick(force=True)
    scaled = tally.scaled_s(speed)

    def op_ms(times):
        if wl.median_of_round:
            times = [sum(times[a:b]) / (b - a) for a, b in tally.rounds]
        return statistics.median(times) * 1e3

    def per_s(times):
        done = [t for t, w in zip(times, tally.op_work) if w]
        return sum(tally.op_work) / sum(done)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "op_ms": (op_ms(scaled), "ms"),
        "work_per_s": (per_s(scaled), "1/s"),
    }
    raw = {"op_ms": op_ms(tally.op_s), "work_per_s": per_s(tally.op_s),
           "reference_kernel_ms": [s * 1e3 for s in speed.samples]}
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": as_metrics(metrics), "raw": raw, "errors": tally.errors}


def traced(args, wl, env) -> dict:
    from workloads import CheckFailed

    before = reference_s(repeat=3)
    imports = tracer.import_times(sys.executable, env)
    import_scale = 2.0 * REF_NOMINAL_S / (before + reference_s(repeat=3))
    # Rounds alternate between plain and traced, so that the machine's
    # speed changes fall on both alike; the difference per operation is
    # the cost of tracing.
    speed, plain, with_spans = Speed(), Tally(), Tally()
    spans = tracer.Spans()
    start = clock()
    while clock() - start < args.seconds:
        run_round(wl, plain, speed)
        wl.trace(spans)
        try:
            run_round(wl, with_spans, speed, spans)
        finally:
            wl.untrace()
    speed.tick(force=True)
    ops = with_spans.attempted
    traced_scaled = with_spans.scaled_s(speed)
    plain_scaled = plain.scaled_s(speed)
    # One factor for the whole traced set keeps the self times a partition.
    scale = sum(traced_scaled) / sum(with_spans.op_s)
    layers = tracer.profile(spans, ops)
    total = tracer.self_time_sum_ms(layers)
    if abs(total - layers["trace.op_ms"][0]) > 1e-6 * layers["trace.op_ms"][0]:
        raise CheckFailed(f"self times add up to {total} ms, traced op is "
                          f"{layers['trace.op_ms'][0]} ms")
    metrics = {k: (v * import_scale, u) for k, (v, u) in imports.items()}
    for k, (v, u) in layers.items():
        metrics[k] = (v * scale if u in ("ms", "us") else v, u)
    overhead = (sum(traced_scaled) / ops - sum(plain_scaled) / plain.attempted) * 1e3
    metrics["trace.overhead_ms"] = (overhead, "ms")
    tracer.write_npz(spans, OUT / f"spans-{args.workload}-{args.seed}.npz")
    raw = {k: v for k, (v, u) in {**imports, **layers}.items()}
    raw["reference_kernel_ms"] = [s * 1e3 for s in speed.samples]
    return {"attempted": plain.attempted + with_spans.attempted,
            "failed": plain.failed + with_spans.failed,
            "metrics": as_metrics(metrics), "raw": raw,
            "errors": plain.errors + with_spans.errors}


if __name__ == "__main__":
    sys.exit(main())
