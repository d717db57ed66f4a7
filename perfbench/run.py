"""lexmetric benchmark: one workload per run, human report then a JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload verify-graphs --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the inputs are set up at least three times (importing
lexmetric afresh each time) and the median is ``setup_s``. Then a fixed
number of pairs, ``--seconds`` times the workload's rate, runs back to back
in one thread, each under its workload's time cap. Outputs are checked
afterwards, outside the timed region. Times are scaled by a reference task
(see ``reference_seconds``).

With ``--trace 1`` half as many pairs run twice from set-up on: untraced,
then with spans around lexmetric's entry points. The two passes must give
identical outputs, and their wall-time difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is 0
whenever that line is printed, and 2 when lexmetric's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_BUDGET_S = 1.0
GUARD_FACTOR = 4
SAMPLE_S = 0.05
TAIL_BEYOND = 10

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OpTimeout(Exception):
    """Raised inside an operation when its time cap expires."""


class TimeCap:
    """Interrupts the call in progress with SIGALRM once its cap expires.

    The solver is pure Python, so the exception lands at the next bytecode.
    The handler only raises while a call is armed, so an alarm that fires
    just after the call returned is ignored.
    """

    def __enter__(self) -> "TimeCap":
        self._armed = False
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _fire(self, signum, frame) -> None:
        if self._armed:
            self._armed = False
            raise OpTimeout

    def call(self, cap_s: float, fn, *args):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            return fn(*args)
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    """One operation: its input, latency, output, and why it failed if it did."""

    item: object
    seconds: float
    output: object
    error: str | None
    capped: bool


# Time of reference_seconds() on the machine that measured the seed numbers
# in README.md (2 vCPUs, Python 3.11, numpy 2.4) when it was quiet.
REFERENCE_S = 1.0e-3
_REF_TABLE = np.random.default_rng(12345).random((24, 24))
_REF_SETS = [frozenset((7 * i + k) % 40 for k in range(i % 5 + 2)) for i in range(400)]


def reference_seconds() -> float:
    """Wall time of one run of a fixed task that does not use lexmetric.

    Its mix, small numpy comparisons between table rows plus frozenset and
    dict work, is the mix of lexmetric's inner loops, so a busy machine slows
    both alike. Timings are scaled by REFERENCE_S over this task's time
    measured around them: on a shared machine, interference comes in
    episodes of seconds to minutes that slow everything by up to 2x, and the
    scaled times stay within a few percent.
    """
    start = time.perf_counter()
    hits = 0
    for i in range(24):
        row = _REF_TABLE[i]
        for j in range(i + 1, 24):
            hits += int((np.abs(row - _REF_TABLE[j]) > 0.5).sum())
    counts: dict[int, int] = {}
    for s in _REF_SETS:
        for x in s:
            counts[x] = counts.get(x, 0) + len(s)
    return time.perf_counter() - start


class ScaledClock:
    """Wall time scaled by the reference task, sampled at every lap.

    Each stretch between samples is multiplied by REFERENCE_S over the mean
    of the reference timings at its two ends. A lap samples only when at
    least ``SAMPLE_S`` passed since the last sample, so long work is split
    into short stretches and cheap laps cost nothing. The reference runs
    themselves are not counted.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._ref = reference_seconds()
        self._mark = time.perf_counter()

    def lap(self, force: bool = False) -> float:
        """Account for the time since the last sample; return the running total."""
        elapsed = time.perf_counter() - self._mark
        if force or elapsed >= SAMPLE_S:
            ref = reference_seconds()
            self.total += elapsed * 2 * REFERENCE_S / (self._ref + ref)
            self._ref = ref
            self._mark = time.perf_counter()
        return self.total


def import_lexmetric():
    """Import lexmetric from this checkout's ``src``, dropping any earlier import."""
    if not (SRC / "lexmetric" / "__init__.py").is_file():
        raise FileNotFoundError(f"lexmetric sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "lexmetric" or m.startswith("lexmetric.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lx = importlib.import_module("lexmetric")
    importlib.import_module("lexmetric.cli")
    if not Path(lx.__file__).resolve().is_relative_to(SRC):
        raise FileNotFoundError(f"lexmetric was imported from {lx.__file__}, not {SRC}")
    return lx


def run_op(cap: TimeCap, cap_s: float, workload, lx, item) -> Record:
    start = time.perf_counter()
    try:
        output = cap.call(cap_s, workload.run, lx, item)
    except OpTimeout:
        return Record(item, time.perf_counter() - start, None, f"capped at {cap_s:.3f} s", True)
    except Exception:  # one failed operation is counted, not fatal
        error = traceback.format_exc(limit=3)
        print(f"operation failed: {error}", file=sys.stderr)
        return Record(item, time.perf_counter() - start, None, error, False)
    return Record(item, time.perf_counter() - start, output, None, False)


def gate(workload, lx, records: list[Record]) -> tuple[int, bool]:
    """Check every completed output; return (failed operations, all correct)."""
    failed = 0
    correct = True
    for record in records:
        if record.error is None:
            record.error = workload.check(lx, record.item, record.output)
            if record.error is not None:
                print(f"gate failed: {record.error}", file=sys.stderr)
        if record.error is not None:
            failed += 1
            correct = correct and record.capped
    return failed, correct


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer there is no such percentile; the maximum is
    reported with its percentile, 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(workload, seed: int, seconds: float) -> dict:
    count = max(2, round(seconds * workload.rate))
    # At least three set-ups, more while they are cheap: a 20 ms set-up
    # needs many samples for a steady median.
    setup: list[float] = []
    spent = 0.0
    while len(setup) < 3 or (spent < SETUP_BUDGET_S and len(setup) < 20):
        start = time.perf_counter()
        clock = ScaledClock()
        lx = import_lexmetric()
        items = []
        for item in workload.inputs(lx, seed, count):
            items.append(item)
            clock.lap()
        setup.append(clock.lap(force=True))
        spent += time.perf_counter() - start

    # A fixed number of pairs rather than a deadline: how many pairs fit in
    # the time depends on how busy the machine is, and the tail percentile
    # depends on how many pairs there are. The deadline only guards against
    # a pathologically slow program.
    records: list[Record] = []
    refs = [reference_seconds()]
    with TimeCap() as cap:
        start = time.perf_counter()
        for item in items:
            if time.perf_counter() - start > GUARD_FACTOR * seconds:
                break
            # The cap is in scaled time too, so a busy machine cuts the same
            # instances as a quiet one.
            cap_s = workload.cap_s * refs[-1] / REFERENCE_S
            records.append(run_op(cap, cap_s, workload, lx, item))
            refs.append(reference_seconds())
        elapsed = time.perf_counter() - start
    failed, correct = gate(workload, lx, records)

    raw_ms = [1000.0 * r.seconds for r in records]
    latencies_ms = [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(raw_ms, refs, refs[1:])]
    p50 = statistics.median(latencies_ms)
    tail_ms, tail_pct = tail(latencies_ms)
    n = len(records)
    capped = sum(r.capped for r in records)
    speed = REFERENCE_S / statistics.median(refs)
    print(f"workload {workload.name}, seed {seed}: {n} of {count} pairs in {elapsed:.3f} s, "
          f"{failed} failed ({capped} capped at {workload.cap_s} s scaled); "
          f"machine at {speed:.2f}x reference speed")
    print(f"  setup_s       {statistics.median(setup):.4f} s   (median of {len(setup)} set-ups)")
    print(f"  pairs_per_s   {(n - failed) / elapsed:.3f} 1/s (raw)")
    print(f"  pair_p50_ms   {p50:.3f} ms  (raw {statistics.median(raw_ms):.3f} ms, n={n})")
    print(f"  pair_tail_ms  {tail_ms:.3f} ms  (p{tail_pct:.1f}, {min(TAIL_BEYOND, n - 1)} beyond)")
    print(f"  pair_max_ms   {max(latencies_ms):.3f} ms")
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pair_p50_ms": {"value": p50, "unit": "ms"},
            "pair_tail_ms": {"value": tail_ms, "unit": "ms"},
        },
    }


def traced_run(workload, seed: int, seconds: float) -> dict:
    count = max(2, round(seconds * workload.rate / 2))
    lx = import_lexmetric()
    tracer = Tracer()

    start = time.perf_counter()
    items = list(workload.inputs(lx, seed, count))
    plain_wall = time.perf_counter() - start
    with tracer:
        origin = time.perf_counter()
        traced_items = list(workload.inputs(lx, seed, count))
        traced_wall = time.perf_counter() - origin

    # Each input runs untraced and traced back to back, alternating which
    # goes first, so drift in machine speed cancels out of the overhead.
    plain, traced = [], []
    with TimeCap() as cap:
        for i, (item, traced_item) in enumerate(zip(items, traced_items)):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side:
                    with tracer:
                        traced.append(run_op(cap, workload.cap_s, workload, lx, traced_item))
                else:
                    plain.append(run_op(cap, workload.cap_s, workload, lx, item))
    plain_wall += sum(r.seconds for r in plain)
    traced_wall += sum(r.seconds for r in traced)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.json", origin)

    failed, correct = gate(workload, lx, traced)
    mismatched = sum(
        1
        for a, b in zip(plain, traced)
        if a.error is None and b.error is None and a.output != b.output
    )
    correct = correct and mismatched == 0
    metrics = tracer.layer_metrics(traced_wall)
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    print(f"workload {workload.name}, seed {seed}, traced: {count} operations, "
          f"{failed} failed, {mismatched} outputs differ from the untraced pass")
    print(f"  untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"overhead {metrics['trace.overhead_s']:.3f} s, "
          f"uncovered {metrics['trace.uncovered_s']:.3f} s")
    if tracer.absent:
        print(f"  absent spans: {', '.join(tracer.absent)}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:48s} {value:.6g}")
    return {"correct": correct, "attempted": count, "failed": failed, "metrics": metrics}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.seconds)
            units = per_layer_units()
            result["metrics"] = {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
            }
        else:
            result = timed_run(workload, args.seed, args.seconds)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
