#!/usr/bin/env python3
"""Benchmark of the qualifier pipeline, end to end and layer by layer.

Run from the root of a checkout (nothing to build; the program is
imported from ``src/``)::

    python3 qbench/run.py --workload table2 --seed 1 --seconds 25 --trace 0

Workloads are described in ``qbench/workloads.py``.  A run builds the
workload's inputs from ``--seed``, then repeats cycles of cold and warm
operations until ``--seconds`` have passed (a cycle that has started is
finished), checking every operation's output.  The last line of
standard output is one JSON object:

* ``--trace 0``: ``cold_ms`` and ``warm_ms``, the time of the cold and
  of the warm work, and ``setup_s``, the median of three set-ups (a
  fresh interpreter importing the workload's entry module, plus
  generating and writing the inputs);
* ``--trace 1``: the same operations with every layer's entry point
  wrapped in a span (``qbench/spans.py``), reporting in raw
  milliseconds how the median operations split into each layer's self
  time and the time no span covers (``other``), plus per-operation
  counters.

The end-to-end times are normalised to the speed of the machine.  Each
operation's wall time is divided by the mean time of a fixed reference
loop (``reference_loop``) run three times just before and three times
just after it, and multiplied by ``REFERENCE_SECONDS``: the result is
the time the operation would take on a machine that runs one reference
loop in exactly 2 ms (a quiet 2-vCPU cloud VM runs it in 1.5-2 ms).  A
kind's time is the median over repetitions of each distinct operation
(the six Table 2 rows; one operation in the other workloads), summed.
On a machine shared with other tenants the speed of the CPU drifts by
10-100 % over seconds to minutes: between runs, raw median times of
these operations moved by 20-40 %, the normalised medians by 1-8 %.
The raw median times go to standard error.  Garbage is collected before
each operation, outside the timed region, so one operation's leftovers
are not charged to the next.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".qbench-work"
SETUP_REPEATS = 3
KINDS = ("cold", "warm")
#: Times are reported for a machine on which one reference loop takes
#: this long (see ``reference_loop``).
REFERENCE_SECONDS = 0.002


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table2", "batch", "edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import(module: str) -> float:
    """Wall time of a fresh interpreter importing ``module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def reference_loop() -> int:
    """A fixed piece of interpreter work (dict, tuple, string and call
    traffic, like the analyser's own) that measures how fast the machine
    runs at the moment."""
    table: dict[tuple[int, int], str] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, "") + chr(97 + i % 26)
    return sum(len(v) for v in sorted(table.values()))


def reference_seconds() -> float:
    """The mean time of three reference loops."""
    start = time.perf_counter()
    for _ in range(3):
        reference_loop()
    return (time.perf_counter() - start) / 3


def set_up(workload, seed: int, work: Path) -> float:
    """Prepare the workload ``SETUP_REPEATS`` times, each into a fresh
    directory, keeping the last; returns the median set-up cost."""
    costs = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        reference = reference_seconds()
        start = time.perf_counter()
        time_import(workload.ENTRY)
        workload.prepare(seed, target)
        elapsed = time.perf_counter() - start
        costs.append(elapsed / ((reference + reference_seconds()) / 2))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target, ignore_errors=True)
    return statistics.median(costs)


class Sample(NamedTuple):
    """One operation: its cost in reference loops, its wall time, and
    (traced runs only) per-layer self seconds and counter deltas."""

    cost: float
    seconds: float
    layers: dict[str, float]
    counts: dict[str, int]


def measure(workload, seconds: float, tracer):
    """Run cycles until ``seconds`` pass.  Each operation's cost is its
    wall time over the reference loop's, timed just before and after it.
    Returns, per kind and key, every :class:`Sample`, and the numbers of
    operations attempted and failed."""
    samples: dict[str, dict[str, list[Sample]]] = {kind: {} for kind in KINDS}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for kind, key, run, check in workload.cycle(index):
            attempted += 1
            gc.collect()
            reference = reference_seconds()
            before = tracer.snapshot() if tracer else None
            start = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # count it, keep measuring the rest
                print(f"{kind} operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            after = tracer.snapshot() if tracer else None
            reference = (reference + reference_seconds()) / 2
            if not check(out):
                print(f"{kind} operation {key!r} produced a wrong result", file=sys.stderr)
                failed += 1
                continue
            layers, counts = {}, {}
            if tracer:
                layers = {k: after[0][k] - before[0][k] for k in after[0]}
                counts = {k: after[1][k] - before[1][k] for k in after[1]}
            samples[kind].setdefault(key, []).append(
                Sample(elapsed / reference, elapsed, layers, counts)
            )
        index += 1
    return samples, attempted, failed


def median_samples(samples) -> dict[str, list[Sample]]:
    """Per kind, the median-cost sample of each key (the lower middle
    one for an even count, so its layer split adds up)."""
    return {
        kind: [
            sorted(runs, key=lambda s: s.cost)[(len(runs) - 1) // 2]
            for runs in by_key.values()
        ]
        for kind, by_key in samples.items()
    }


def layer_metrics(samples, spans) -> dict:
    """How each kind's time splits over the layers, in its median-cost
    operations (summed over keys, like the end-to-end figure)."""
    metrics = {}
    for kind, middle in median_samples(samples).items():
        covered = 0.0
        for layer in spans.LAYERS:
            seconds = sum(s.layers[layer] for s in middle)
            covered += seconds
            metrics[f"{kind}_{layer}_ms"] = {"value": seconds * 1000, "unit": "ms"}
        other = sum(s.seconds for s in middle) - covered
        metrics[f"{kind}_other_ms"] = {"value": other * 1000, "unit": "ms"}
        for counter in spans.COUNTERS:
            value = sum(s.counts[counter] for s in middle)
            metrics[f"{kind}_{counter}"] = {"value": value, "unit": "count"}
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Keep every temporary file the program makes inside the checkout.
    tempfile.tempdir = str(work)
    try:
        workload = WORKLOADS[args.workload]()
        setup_cost = set_up(workload, args.seed, work)
        workload.ready()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            skipped = tracer.install()
            if skipped:
                print(f"untraced (not found): {', '.join(skipped)}", file=sys.stderr)
        gc.collect()
        gc.freeze()
        samples, attempted, failed = measure(workload, args.seconds, tracer)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = layer_metrics(samples, spans)
    else:
        # A kind with no successful sample reads 0; the run is already
        # marked incorrect by its failures.
        metrics = {
            f"{kind}_ms": {
                "value": sum(
                    statistics.median(s.cost for s in runs)
                    for runs in samples[kind].values()
                )
                * REFERENCE_SECONDS
                * 1000,
                "unit": "ms",
            }
            for kind in KINDS
        }
        metrics["setup_s"] = {"value": setup_cost * REFERENCE_SECONDS, "unit": "s"}
    print(
        f"{args.workload}: {attempted} operations, {failed} failed; median "
        + ", ".join(
            f"{kind} {sum(s.seconds for s in middle) * 1000:.1f} ms"
            for kind, middle in median_samples(samples).items()
        ),
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
