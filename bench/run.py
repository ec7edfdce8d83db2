"""dvrhom benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload snf-z --seed 1 --seconds 20 --trace 0

One client drives ``dvrhom.cli.run_command`` in this process in a closed
loop: the next op starts when the previous one returns.  No threads or
subprocesses are started.  The workload's inputs are generated from
``--seed`` and serialized to JSON before any timing; the program sees only
those documents (and, for ``complex | pi1``, its own complex report).

A run goes through four phases:

1. set-up: import dvrhom afresh, generate and serialize the inputs; it is
   timed again after each of the first timed rounds, and ``setup_s`` is the
   median of ``SETUP_REPEATS`` samples;
2. a pinning round: every op once, untimed; each report is checked against
   the independent reference in ``oracle.py`` and its bytes are kept;
3. timed rounds of the whole batch until ``--seconds`` have passed (at
   least one); every report must repeat the pinned bytes exactly;
4. with ``--trace 1`` only: the timed rounds take half the time, then one
   round runs with spans recorded (``tracer.py``).

Times are thread CPU times, calibrated: each timed call (and each
set-up) is preceded by a fixed bit of reference work, and its time is
scaled to the speed at which that work takes REFERENCE_S.  Other tenants
of a shared host change the machine's speed from one second to the next;
the calibrated times do not follow it (see ``calibrate``).

The last line of standard output is the result object.  The line before it
is ``{"record": ...}`` with the inputs' digest, the pins' digest, the run
environment and details such as the tail percentile; ``compare.py`` reads
these lines.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# About the CPU time of reference() on a quiet 2-vCPU x86-64 virtual machine
# with Python 3.11; a fixed scale, so that calibrated times read in seconds.
REFERENCE_S = 0.0003
NEAR = 10  # reference samples on each side of a call that gauge its speed


def reference():
    """CPU time of a fixed bit of interpreter work: the speed yardstick.

    On a shared virtual machine the same CPU-bound call takes up to 1.8
    times as long when other tenants load the host, in stretches from a
    fraction of a second to minutes.  Each timed call runs right after one
    of these, so its time can be read at the speed the machine had then.
    """
    start = thread_time()
    acc = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i // 7
    return thread_time() - start


def calibrate(times, refs):
    """Each time in ``times`` at the speed that gives ``reference`` REFERENCE_S.

    ``refs[k]`` is the reference time taken just before ``times[k]``; the
    machine's speed at call k is read from the median of the reference
    times within NEAR calls of it.
    """
    out = []
    for k, elapsed in enumerate(times):
        near = refs[max(k - NEAR, 0):k + NEAR + 1]
        out.append(elapsed * REFERENCE_S / statistics.median(near))
    return out


def _fresh_import():
    for name in [m for m in sys.modules if m == "dvrhom" or m.startswith("dvrhom.")]:
        del sys.modules[name]
    dv = importlib.import_module("dvrhom")
    cli = importlib.import_module("dvrhom.cli")
    return dv, cli


def setup(workload, seed):
    """One set-up: its calibrated time, the CLI module and the batch."""
    gc.collect()
    before = [reference() for _ in range(NEAR)]
    start = thread_time()
    dv, cli = _fresh_import()
    batch = workloads.WORKLOADS[workload](dv, seed)
    elapsed = thread_time() - start
    after = [reference() for _ in range(NEAR)]
    if Path(dv.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"dvrhom imported from {dv.__file__}, not {SRC}")
    return elapsed * REFERENCE_S / statistics.median(before + after), cli, batch


def _call(run_command, argv, text, trace=None, op_id=None):
    stdin, stdout = io.StringIO(text), io.StringIO()
    start = thread_time()
    if trace is not None:
        frame = trace.begin_op(op_id)
    try:
        run_command(argv, stdin=stdin, stdout=stdout)
        outcome = None
    except Exception as exc:  # any exception is an outcome to check
        outcome = exc
    if trace is not None:
        trace.end_op(frame)
    elapsed = thread_time() - start
    if outcome is not None:
        return elapsed, f"raised {type(outcome).__name__}: {outcome}", outcome
    return elapsed, stdout.getvalue(), None


class Harness:
    """One batch, its pins and the tally of checked calls."""

    def __init__(self, cli, batch):
        self.cli = cli
        self.batch = batch
        self.timed = [op for op in batch.ops if op.timed]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._pinned = {}  # id(op) -> report text
        self._bad = set()  # id(op) of ops whose pinned report failed a check
        self._complex_text = {}
        self.pins = [dict() for _ in batch.subjects]

    def _input(self, op):
        if op.source == "complex":
            return self._complex_text[op.subject]
        return self.batch.subjects[op.subject].doc

    def pin(self):
        """Run every op once, check each report, keep its bytes."""
        refs = [
            oracle.Reference(s.n, s.out, s.subset) for s in self.batch.subjects
        ]
        by_kind = {}
        for op in self.batch.ops:
            _, text, exc = _call(self.cli.run_command, op.argv, self._input(op))
            self.attempted += 1
            self._pinned[id(op)] = text
            by_kind[op.subject, op.kind] = op
            if op.kind == "complex" and exc is None:
                self._complex_text[op.subject] = text
            try:
                report = exc if exc is not None else json.loads(text)
                pin = oracle.pin_of(op.kind, report)
                found = oracle.check_pin(op.kind, pin, refs[op.subject], op.expect)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                pin, found = None, [f"malformed report: {err!r}"]
            self.pins[op.subject][op.kind] = pin
            if found:
                self._fail(op, found)
        for i, pins in enumerate(self.pins):
            for kind, problem in oracle.cross_check(pins):
                op = by_kind[i, kind]
                if id(op) not in self._bad:
                    self._fail(op, [problem])

    def _fail(self, op, found):
        self.failed += 1
        self._bad.add(id(op))
        subject = self.batch.subjects[op.subject].name
        self.problems.append(f"{subject} {' '.join(op.argv)}: {'; '.join(found)}")

    def round(self, trace=None):
        """One pass over the timed ops.

        Returns each op's latency and the reference time taken just before
        it.
        """
        run_command = self.cli.run_command
        latencies, refs = [], []
        for i, op in enumerate(self.timed):
            text_in = self._input(op)
            refs.append(reference())
            elapsed, text, _ = _call(run_command, op.argv, text_in, trace, i)
            if trace is not None:
                trace.counters["cli.in_bytes"] += len(text_in.encode("utf-8"))
                trace.counters["cli.out_bytes"] += len(text.encode("utf-8"))
            latencies.append(elapsed)
            self.attempted += 1
            if id(op) in self._bad:
                self.failed += 1
            elif text != self._pinned[id(op)]:
                self._fail(op, ["report bytes differ from the first run"])
        return latencies, refs

    def rounds(self, seconds, between=None):
        """Timed rounds until they add up to ``seconds``; their ``round()``s.

        ``between`` runs after each round, outside the timed span.
        """
        out = []
        busy = 0.0
        while not out or busy < seconds:
            gc.collect()
            start = perf_counter()
            out.append(self.round())
            busy += perf_counter() - start
            if between is not None:
                between()
        return out

    def pins_digest(self):
        return oracle.digest(self.pins)


def end_to_end(rounds, setup_s):
    """End-to-end metrics from ``round()`` results.

    An op's latency is the median of its calibrated timed calls.
    """
    times = [t for latencies, _ in rounds for t in latencies]
    refs = [r for _, round_refs in rounds for r in round_refs]
    calibrated = calibrate(times, refs)
    count = len(rounds[0][0])
    per_op = sorted(
        statistics.median(calibrated[op::count]) for op in range(count))
    rank = max(count - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (count / sum(per_op), "1/s"),
        "latency_p50_s": (statistics.median(per_op), "s"),
        "latency_tail_s": (per_op[rank], "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "tail_percentile": round(100 * (rank + 1) / count, 2),
        "tail_samples": count,
        "rounds": len(rounds),
        "reference_median_s": statistics.median(refs),
    }
    return metrics, details


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(cli, batch, setup_s, seconds, trace, resetup=None):
    """Pin, then time (or trace) the batch; returns (record, result, spans).

    ``setup_s`` lists the set-up times so far; ``resetup`` times one more
    set-up.  It runs between timed rounds until there are SETUP_REPEATS
    samples, so that a stretch of slow machine hits few of them.
    """
    harness = Harness(cli, batch)
    harness.pin()
    record = {
        "input_digest": batch.input_digest(),
        "pins_digest": harness.pins_digest(),
        "ops_per_round": len(harness.timed),
        "environment": environment(),
    }
    spans = None
    if not trace:

        def between():
            if resetup is not None and len(setup_s) < SETUP_REPEATS:
                setup_s.append(resetup())

        rounds = harness.rounds(seconds, between)
        metrics, details = end_to_end(rounds, statistics.median(setup_s))
        record.update(details)
    else:
        untraced = harness.rounds(seconds / 2)
        untraced_s = statistics.median(sum(r) for r, _ in untraced)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced_s = sum(harness.round(trace=spans)[0])
        finally:
            spans.uninstall()
        metrics = tracer.layer_metrics(spans, traced_s, untraced_s)
        record.update(
            untraced_round_s=untraced_s,
            traced_round_s=traced_s,
            self_times=dict(sorted(spans.self_s.items())),
        )
    record["fail_rate"] = harness.failed / harness.attempted
    record["problems"] = harness.problems[:20]
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["metrics"] = result["metrics"]
    return record, result, spans


def _write_spans(spans, workload, seed):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{workload}-{seed}.json"
    spans.write(path)
    return path.relative_to(ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dvrhom" / "__init__.py").is_file():
        print(f"error: no dvrhom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, cli, batch = setup(args.workload, args.seed)
    record, result, spans = measure(
        cli, batch, [setup_s], args.seconds, args.trace,
        resetup=lambda: setup(args.workload, args.seed)[0],
    )
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    if spans is not None:
        record["spans_file"] = str(_write_spans(spans, args.workload, args.seed))
    for name, m in result["metrics"].items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_rate':<32} {record['fail_rate']:>14.6g} ratio")
        print(f"latency_tail_s is p{record['tail_percentile']} of "
              f"{record['tail_samples']} ops, each its median over {record['rounds']} rounds")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
