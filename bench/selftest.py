"""Fast self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

Checks that inputs are a function of the seed, that the printed metric
names are those of BENCHMARK.json, that a report contradicting the
reference is caught, that exceptions and changed bytes count as failed
ops, and that calibration undoes a uniform slow-down.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads
from oracle import Reference, check_pin

TINY = 6  # subjects of the small corpus used for the tiny batch


def _tiny_batch(dv):
    full = workloads.small_corpus(dv, 0)
    ops = [op for op in full.ops if op.subject < TINY]
    return workloads.Batch(full.subjects[:TINY], ops)


def main():
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    dv, cli = run._fresh_import()
    for name, make in workloads.WORKLOADS.items():
        first = make(dv, 1).input_digest()
        check(first == make(dv, 1).input_digest(), f"{name}: same seed, same inputs")
        check(first != make(dv, 2).input_digest(), f"{name}: new seed, new inputs")

    slow = 2 * run.REFERENCE_S
    check(run.calibrate([0.02, 0.04], [slow, slow]) == [0.01, 0.02],
          "calibration halves times taken while the reference ran twice as slow")

    batch = _tiny_batch(dv)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record, result, _ = run.measure(cli, batch, [0.01], 0, trace)
        names = {m["name"] for m in spec[key]}
        check(set(result["metrics"]) == names, f"--trace {trace} prints the {key} metrics")
        check(result["correct"] and result["failed"] == 0,
              f"--trace {trace}: tiny batch passes its checks")

    harness = run.Harness(cli, batch)
    harness.pin()
    subject = next(i for i, s in enumerate(batch.subjects) if s.n > 2)
    s = batch.subjects[subject]
    ref = Reference(s.n, s.out, s.subset)
    pin = harness.pins[subject]["homology-z"]
    check(not check_pin("homology-z", pin, ref, None), "pinned homology passes")
    flipped = copy.deepcopy(pin)
    flipped["groups"][0]["betti"] += 1
    check(bool(check_pin("homology-z", flipped, ref, None)),
          "a flipped Betti number is rejected")

    harness.cli = _Raising()
    harness.round()
    check(harness.failed == len(harness.timed), "every op that raises counts as failed")

    harness = run.Harness(cli, batch)
    harness.pin()
    harness.cli = _Garbling(cli)
    harness.round()
    # Ops pinned as raising (pi1 on a disconnected subject) write no report.
    reports = sum(1 for op in harness.timed if "error" not in harness.pins[op.subject][op.kind])
    check(harness.failed == reports, "changed report bytes count as failed")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


class _Raising:
    @staticmethod
    def run_command(argv, stdin=None, stdout=None):
        raise RuntimeError("boom")


class _Garbling:
    def __init__(self, cli):
        self._cli = cli

    def run_command(self, argv, stdin=None, stdout=None):
        self._cli.run_command(argv, stdin=stdin, stdout=stdout)
        stdout.write(" ")


if __name__ == "__main__":
    sys.exit(main())
