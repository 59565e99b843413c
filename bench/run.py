"""Benchmark of the fekete CLI and library: four workloads, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy, and the command fails
without printing a result when ``src/fekete`` is missing.

Untraced (``--trace 0``) each workload reports, by name and unit:

    setup_s      median time of fresh interpreters, started one after
                 another, that import fekete.cli and build its parser
    pass_s       median time of one pass over the workload's operations
    op_p50_s     median time of one operation, over every timed one
    peak_rss_mb  peak resident set size of this process

Times are wall times scaled to the reference machine by ``HostSpeed``; the
unscaled medians are printed above the result.

Every operation first gets an untimed warm-up call, whose output is checked
against the oracles in ``oracles.py``; each timed call must then print the
same bytes.  Passes go round-robin over the operation list, with
``gc.collect()`` before each operation, until ``--seconds`` have passed and
at least three passes are done, so every run attempts whole passes.

Traced (``--trace 1``) one round runs every workload once untraced and once
under ``tracing.Tracer`` and reports the per-layer metrics of the traced
passes, plus the ratio of traced to untraced time.  Attempted and failed
count the requested workload's operations in both modes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload all`` the
metric names carry the workload as a prefix.
"""

import os
import sys

# Thread pools and the hash seed are fixed before numpy loads; the launcher
# re-executes itself once with them in place.
_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if any(os.environ.get(k) != v for k, v in _PINNED.items()) or "FEKETE_LOG" in os.environ:
    _env = {k: v for k, v in os.environ.items() if k != "FEKETE_LOG"}
    _env.update(_PINNED)
    os.execve(sys.executable, [sys.executable, *sys.argv], _env)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "bench", "results")

MIN_PASSES = 3
SETUP_CHILDREN = 5
SETUP_CODE = "import fekete.cli as cli; cli.build_parser()"

# Wall time of one HostSpeed probe on the reference machine (see README.md).
PROBE_REFERENCE_S = 0.006

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB")]


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "fekete", "cli.py")):
        sys.exit(f"bench: no fekete sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import fekete.cli
    if not os.path.abspath(fekete.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported fekete from {fekete.cli.__file__}, not from {SRC}")


class HostSpeed:
    """Converts wall times to reference-machine seconds.

    The host's speed drifts by up to 2x over minutes while the work stays
    the same (CPU time tracks wall time, steal stays near 0).  Between timed
    intervals the benchmark times a fixed probe of interpreted float
    arithmetic and small numpy array operations; the intervals of one pass
    are scaled by PROBE_REFERENCE_S over the median probe time of that pass.
    """

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 48)
        self.probes: list[float] = []

    def probe(self):
        start = perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += math.sin(i * 0.001)
        x = self._x
        for _ in range(300):
            acc += float(abs(x[:, None] - x[None, :]).sum())
        self.probes.append(perf_counter() - start)

    def factor(self) -> float:
        """The scale for the intervals since the last call."""
        f = PROBE_REFERENCE_S / statistics.median(self.probes)
        self.probes = self.probes[-1:]
        return f


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters importing the CLI, after one
    untimed start that leaves the bytecode cache warm; in reference and in
    wall seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    speed = HostSpeed()
    wall = []
    for i in range(SETUP_CHILDREN + 1):
        speed.probe()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            wall.append(perf_counter() - start)
    speed.probe()
    median = statistics.median(wall)
    return median * speed.factor(), median


class Workload:
    """One workload's operations, their warm-up results and check verdicts."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.ops = workloads.build(name, seed)
        self.reference = []
        self.reasons = []

    def warm_up(self):
        for op in self.ops:
            gc.collect()
            res = op.call()
            self.reference.append(res)
            self.reasons.append(op.check(res))

    def run_pass(self, tally, speed: HostSpeed, tracer=None) -> tuple[float, float]:
        """One timed pass; returns its time (the sum of the operations'
        times) in reference and in wall seconds.  ``tally`` collects
        attempted/failed counts and op times."""
        times = []
        gc.collect()
        speed.probe()
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.op = f"{self.name}:{i}"
            start = perf_counter()
            res = op.call()
            elapsed = perf_counter() - start
            gc.collect()
            speed.probe()
            times.append(elapsed)
            if tracer and op.is_cli:
                tracer.counts["cli.out_bytes"] += len(res.text.encode())
            ref = self.reference[i]
            ok = self.reasons[i] is None and res.rc == ref.rc and res.text == ref.text
            if not ok and self.reasons[i] is None:
                self.reasons[i] = "output differs from the warm-up call's"
            tally.record(self, i, ok)
        factor = speed.factor()
        tally.op_times.extend(t * factor for t in times)
        return sum(times) * factor, sum(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times: list[float] = []
        self.unexpected: dict[str, str] = {}

    def record(self, wl: Workload, i: int, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not wl.ops[i].known_fault:
                self.unexpected[f"{wl.name}: {wl.ops[i].label}"] = wl.reasons[i]

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_untraced(name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup, setup_wall = measure_setup()
    wl = Workload(name, seed)
    wl.warm_up()
    tally = Tally()
    speed = HostSpeed()
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(wl.run_pass(tally, speed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup, "pass_s": statistics.median(p for p, _ in passes),
              "op_p50_s": statistics.median(tally.op_times), "peak_rss_mb": peak_mb}
    wall = {"setup_wall_s": setup_wall, "pass_wall_s": statistics.median(w for _, w in passes)}
    return tally, {m: {"value": values[m], "unit": u} for m, u in END_TO_END}, wall


def run_traced(names: list[str], seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Rounds of: every workload untraced, then traced.  Layer times are
    medians over rounds; counts come from the first round and must repeat."""
    all_wl = [Workload(w, seed) for w in workloads.WORKLOADS]
    for wl in all_wl:
        wl.warm_up()
    tracer = tracing.Tracer()
    speed = HostSpeed()
    tally = Tally()          # the requested workloads' operations
    other = Tally()          # the rest, checked but not counted
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        plain = sum(wl.run_pass(Tally(), speed)[0] for wl in all_wl)
        first, counts_before = tracer.mark()
        tracer.install()
        try:
            traced = 0.0
            for wl in all_wl:
                traced += wl.run_pass(tally if wl.name in names else other, speed, tracer)[0]
        finally:
            tracer.uninstall()
        counts = tracer.counts - counts_before
        values = tracing.layer_metrics(tracer.spans[first:], first, counts)
        values["trace.overhead_ratio"] = traced / plain
        rounds.append(values)
    tally.unexpected.update(other.unexpected)
    _write_spans(tracer.spans)
    metrics = {}
    for name, unit, _ in tracing.METRICS:
        series = [r[name] for r in rounds]
        if unit in ("count", "bytes") and len(set(series)) > 1:
            tally.unexpected[f"trace: {name}"] = f"count differs between rounds: {series}"
        value = series[0] if unit in ("count", "bytes") else statistics.median(series)
        metrics[name] = {"value": value, "unit": unit}
    return tally, metrics, {}


def _write_spans(spans):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "spans.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,name,start,end,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    if args.trace:
        per_workload = {"traced": run_traced(names, args.seed, args.seconds)}
    else:
        per_workload = {n: run_untraced(n, args.seed, args.seconds) for n in names}

    attempted = failed = 0
    correct = True
    metrics = {}
    for label, (tally, m, wall) in per_workload.items():
        for name, mv in m.items():
            print(f"{label:9s} {name:32s} {mv['value']:.6g} {mv['unit']}")
            metrics[name if len(per_workload) == 1 else f"{label}.{name}"] = mv
        for name, value in wall.items():
            print(f"{label:9s} {name:32s} {value:.6g} s (unscaled)")
        print(f"{label:9s} attempted {tally.attempted} failed {tally.failed}")
        for op, reason in tally.unexpected.items():
            print(f"bench: unexpected failure: {op}: {reason}", file=sys.stderr)
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and tally.correct
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
