"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py parent.log change.log

Each file holds the standard output of ``bench/run.py`` runs, concatenated;
only the ``{"record": ...}`` lines are read.  For every workload and every
end-to-end metric of BENCHMARK.json this prints both sides' medians and
quartiles, the share of seed-matched pairs the change won (ties count for
neither side), and a verdict against the metric's bound:

* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent run;
* ``improved``: the change won at least 9 pairs in 10 and the medians differ
  by more than the parent's quartile distance;
* ``within bound``: anything else.

It also reports failed ops and seeds whose pinned answers differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            if not record["trace"]:
                runs.append(record)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(parent, change):
    """Runs matched by seed, in run order within a seed."""
    by_seed = {}
    for r in parent:
        by_seed.setdefault(r["seed"], []).append(r)
    out = []
    for r in change:
        if by_seed.get(r["seed"]):
            out.append((by_seed[r["seed"]].pop(0), r))
    return out


def verdict(metric, parent, change, won):
    """Quartiles of both sides, the change's relative worsening, a verdict."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = _quartiles(parent)
    quartiles = (p1, pm, p3), _quartiles(change)
    cm = quartiles[1][1]
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if lower:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if (p3 - p1) / pm > bound:
        return quartiles, worse_by, "improved" if all_better else "unresolved"
    if worse_by > bound:
        return quartiles, worse_by, "regressed"
    if won >= 0.9 and -worse_by * pm > p3 - p1:
        return quartiles, worse_by, "improved"
    return quartiles, worse_by, "within bound"


def compare(parent_runs, change_runs, spec):
    lines = []
    workloads = sorted({r["workload"] for r in parent_runs + change_runs})
    for w in workloads:
        parent = [r for r in parent_runs if r["workload"] == w]
        change = [r for r in change_runs if r["workload"] == w]
        lines.append(f"== {w}: {len(parent)} parent runs, {len(change)} change runs")
        if not parent or not change:
            lines.append("   missing runs on one side")
            continue
        pairs = _pairs(parent, change)
        lines.append(
            f"   {'metric':<16} {'parent q1/median/q3':>36} {'change q1/median/q3':>36}"
            f" {'won':>5} {'worse':>7} {'bound':>6}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            sign = 1 if metric["better"] == "higher" else -1
            wins = [
                sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                for p, c in pairs
            ]
            won = sum(wins) / len(wins) if wins else 0.0
            (pq, cq), worse_by, says = verdict(metric, pv, cv, won)
            lines.append(
                f"   {name:<16} {_fmt(pq):>36} {_fmt(cq):>36} {won:>5.0%}"
                f" {worse_by:>+7.1%} {metric['bound']:>6.0%}  {says}"
            )
        failed = [(r["seed"], r["fail_rate"]) for r in change if r["fail_rate"]]
        if failed:
            lines.append(f"   change runs with failed ops (seed, fail rate): {failed}")
        differ = sorted(
            {c["seed"] for p, c in pairs if p["pins_digest"] != c["pins_digest"]}
        )
        if differ:
            lines.append(f"   pinned answers differ on seeds {differ}")
    return lines


def _fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for line in compare(load(args.parent), load(args.change), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
