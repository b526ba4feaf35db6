#!/usr/bin/env python3
"""Benchmark of the homtwist command line, driven in process.

One client sends CLI requests to ``homtwist.cli.main(argv)`` in a closed loop:
each request starts when the previous one has returned.  No threads are used;
the only other processes are the set-up samples described below, started and
awaited one at a time.

    python3 perfbench/run.py --workload symbolic --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30

``--trace 0`` repeats the workload's seeded op list (one *round*) until
``--seconds`` of op time have passed, in whole rounds, and reports the
end-to-end metrics.  ``--trace 1`` makes one untraced pass and one traced pass
over the op list and reports the per-layer metrics; the spans are written to
``.perfbench_out/``.  ``--workload all`` runs every workload in both modes,
each in its own process.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at the speed of a reference host.  Before every op the
benchmark times a fixed pure-Python load (``reference_load``); an op's wall
time is multiplied by ``REFERENCE_S`` over the median of the last
``REFERENCE_WINDOW`` load times.  On a host whose speed drifts, as shared
virtual machines do, this cancels most of the drift; on the reference host
the factor is about 1.  The raw wall-clock figures are printed as well.

* ``ops_per_s``: ops that passed over the summed op time of all rounds.
* ``latency_p50_ms``, ``latency_p90_ms``: percentiles of every op of every round.
* ``setup_s``: the median over ``SETUP_SAMPLES`` fresh processes of the time
  from starting ``python3 perfbench/run.py --setup-only`` to its report that
  it is ready for the first op: interpreter start, imports, input generation,
  documents written and warm-up.
* ``peak_rss_mb``: the peak resident set of this process.

Every op's exit code, traceback-free output and output digest are checked;
see ``Runner.judge``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MIN_SAMPLES = 100
# reference_load's median time on the reference host (see README.md)
REFERENCE_S = 0.0030
REFERENCE_WINDOW = 5
# Per-layer metrics that describe the op mix, not its speed: they must equal
# the values recorded for the seed, or the program's behaviour has changed.
INVARIANTS = ("axioms.failed_ratio", "axioms.witnesses", "search.candidates",
              "search.hits", "cli.stdout_bytes")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_homtwist():
    """Import homtwist from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("homtwist.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"homtwist imported from {cli.__file__}, not from {SRC}")
    return cli


def load_reference(name: str, seed: int):
    """{"digests": [...], "invariants": {...}} recorded for this seed, or None."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(name, {}).get(str(seed))


def reference_load() -> int:
    """A fixed load of interpreted integer arithmetic: a few ms per call."""
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s


class Speedometer:
    """Host speed from the reference load, timed before every op."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_load()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiplier from wall time on this host now to reference-host time."""
        return REFERENCE_S / statistics.median(self.samples[-REFERENCE_WINDOW:])


class Runner:
    """Sends ops to the CLI and judges each outcome.

    An op fails when its exit code differs from the expected one, when
    ``main`` raises or prints a traceback, when its output (stdout plus the
    document it writes) differs from an earlier repetition, or when it differs
    from the digest recorded for this seed.  An op whose ``defect`` names the
    exception it raises is a known failure: it counts in ``failed`` but does
    not make the run incorrect.
    """

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout_bytes = 0

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        main = sys.modules["homtwist.cli"].main  # looked up per call: tracing swaps it
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                outcome = main(list(op.argv))
            except Exception as exc:  # the op's failure, judged below
                outcome = exc
            elapsed = time.perf_counter() - start
        return elapsed, outcome, out.getvalue(), err.getvalue()

    def run(self, index: int) -> tuple[float, bool]:
        """Run op ``index`` of the round: (wall time, whether it passed)."""
        op = self.workload.ops[index]
        elapsed, outcome, out, err = self.call(op)
        self.attempted += 1
        self.stdout_bytes += len(out.encode())
        known, problem = self.judge(op, outcome, out, err, index)
        if known or problem:
            self.failed += 1
        if problem:
            self.problems.append(f"op {index} {' '.join(op.argv)}: {problem}")
        return elapsed, not (known or problem)

    def warm_up(self):
        for op in self.workload.warmup:
            _, outcome, out, err = self.call(op)
            known, problem = self.judge(op, outcome, out, err, None)
            if known or problem:
                self.problems.append(f"warm-up {' '.join(op.argv)}: {problem or outcome!r}")

    def judge(self, op, outcome, out, err, index):
        """(known failure, problem description or None) for one outcome."""
        if isinstance(outcome, Exception):
            if type(outcome).__name__ == op.defect:
                return True, None
            return False, f"raised {type(outcome).__name__}: {outcome}"
        if "Traceback (most recent call last)" in out + err:
            return False, "printed a traceback"
        if outcome != op.expect:
            return False, f"exit {outcome}, expected {op.expect}"
        if index is None:
            return False, None
        data = out.encode()
        if op.output:
            try:
                data += b"\0" + Path(op.output).read_bytes()
            except OSError as exc:
                return False, f"no output document: {exc}"
        digest = hashlib.sha256(data).hexdigest()[:12]
        if self.seen.setdefault(index, digest) != digest:
            return False, "output differs from an earlier repetition"
        recorded = self.reference["digests"][index] if self.reference else None
        if recorded not in (None, digest):
            return False, "output differs from the recorded digest"
        return False, None

    def digests(self) -> list[str | None]:
        """Digest of each op's first repetition (None for a known failure)."""
        return [self.seen.get(i) for i in range(len(self.workload.ops))]

    @property
    def correct(self) -> bool:
        return not self.problems


def setup(name: str, seed: int, work: Path, recorded: bool = True) -> Runner:
    """Import homtwist, write the inputs into ``work`` (the new cwd) and warm up.

    With ``recorded`` false, outputs are not compared with ``digests.json``.
    """
    import_homtwist()
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    workload = workloads.build(name, seed)
    runner = Runner(workload, load_reference(name, seed) if recorded else None)
    runner.warm_up()
    return runner


def setup_only(name: str, seed: int, work: Path) -> int:
    """Set up, report readiness on stdout, clean up: one set-up sample."""
    try:
        runner = setup(name, seed, work)
        print("ready" if runner.correct else f"problem: {runner.problems[0]}", flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    return 0 if runner.correct else 1


def setup_sample(name: str, seed: int, work: Path, meter: Speedometer) -> tuple[float, str | None]:
    """Time a fresh process from its start to its first op: (seconds, problem or None)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-only", str(work)]
    meter.sample()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=SETUP_TIMEOUT_S)
    meter.sample()
    problem = None if line == "ready" and code == 0 else f"set-up process: {line!r}, exit {code}"
    return elapsed * meter.factor(), problem


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(name: str, seed: int, work: Path, seconds: float):
    """Whole rounds until ``seconds`` of op time and MIN_SAMPLES ops are done."""
    runner = setup(name, seed, work)
    meter = Speedometer()
    setups = []
    for k in range(SETUP_SAMPLES):
        elapsed, problem = setup_sample(name, seed, work / f"setup-{k}", meter)
        setups.append(elapsed)
        if problem:
            runner.problems.append(problem)
    ops = len(runner.workload.ops)
    samples, walls, passed, rounds = [], [], 0, 0
    while sum(walls) < seconds or len(samples) < MIN_SAMPLES:
        for i in range(ops):
            meter.sample()
            elapsed, ok = runner.run(i)
            walls.append(elapsed)
            samples.append(elapsed * meter.factor())
            passed += ok
        rounds += 1
    p90 = percentile(samples, 90)
    print(f"rounds: {rounds} of {ops} ops in {sum(walls):.2f} s wall; "
          f"latency samples: {len(samples)}, {sum(s > p90 for s in samples)} beyond p90; "
          f"host speed: {REFERENCE_S / statistics.median(meter.samples):.3f} of the reference")
    print(f"wall clock: ops_per_s {passed / sum(walls):.4g}, "
          f"latency_p50_ms {percentile(walls, 50) * 1e3:.4g}, "
          f"latency_p90_ms {percentile(walls, 90) * 1e3:.4g}")
    return runner, {
        "ops_per_s": (passed / sum(samples), "ops/s"),
        "latency_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def trace(name: str, seed: int, work: Path, recorded: bool = True):
    """One untraced and one traced pass over the op list; per-layer metrics.

    The metrics named in INVARIANTS must equal the values recorded for the seed.
    """
    runner = setup(name, seed, work, recorded)
    ops = range(len(runner.workload.ops))
    start = time.perf_counter()
    for i in ops:
        runner.run(i)
    untraced = time.perf_counter() - start
    tracer = Tracer()
    runner.stdout_bytes = 0
    with tracer.installed():
        start = time.perf_counter()
        for i in ops:
            tracer.op = i
            runner.run(i)
        traced = time.perf_counter() - start
    metrics = tracer.metrics()
    metrics["cli.stdout_bytes"] = (runner.stdout_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    expected = runner.reference["invariants"] if runner.reference else {}
    for key, value in expected.items():
        if metrics[key][0] != value:
            runner.problems.append(f"{key} is {metrics[key][0]}, recorded {value}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{name}-seed{seed}.json")
    return runner, metrics


def invariants(metrics) -> dict:
    return {key: metrics[key][0] for key in INVARIANTS}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        print(f"workload {name}, seed {seed}, trace {int(traced)}")
        if traced:
            runner, metrics = trace(name, seed, work)
        else:
            runner, metrics = measure(name, seed, work, seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    if runner.reference is None:
        print(f"no digests recorded for seed {seed}: outputs are checked only for "
              "exit codes, tracebacks and repeatability")
    print(f"error_rate: {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} ops failed)")
    for problem in runner.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<30} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(traced)]
            status |= subprocess.run(argv, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", type=Path,
                        help="set up in DIR, print 'ready' and exit (one setup_s sample)")
    args = parser.parse_args(argv)
    if not (SRC / "homtwist" / "__init__.py").is_file():
        print(f"error: no homtwist sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        return setup_only(args.workload, args.seed, args.setup_only)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
