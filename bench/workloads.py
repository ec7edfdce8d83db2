"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed batch of CLI ops over a list of subjects (digraph
documents).  The batch shape does not depend on the seed.

Exact elimination costs vary a lot between digraphs of the same size, so
with freshly drawn digraphs per seed whole-batch times swung widely
between seeds.  The heavy workloads therefore hold their shapes fixed: each
random subject is the first ``random_digraph(n, p)`` from a fixed stream
whose simplex count falls in a stated window, with a fixed vertex subset.
``--seed`` relabels every subject's vertices, which changes the order the
program meets them in, and so its pivot and search order, but not the
answers.  The small corpus is the acceptance corpus of the tests, relabelled
the same way.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracle


@dataclass
class Subject:
    name: str
    n: int
    out: tuple  # out-neighbour bitmask per vertex, loops included
    doc: str  # the digraph document the program receives
    subset: tuple | None = None  # vertex subset for pair / les-check


@dataclass
class Op:
    kind: str  # key for oracle.pin_of / check_pin
    subject: int
    argv: list
    source: str = "digraph"  # or "complex": the subject's complex report
    expect: int | None = None  # requested fx-sample count
    timed: bool = True  # False: run once while pinning, as a cross-check


@dataclass
class Batch:
    subjects: list
    ops: list

    def input_digest(self):
        return oracle.digest(
            [[s.doc, s.subset] for s in self.subjects]
            + [[o.kind, o.subject, o.argv, o.source] for o in self.ops]
        )


def _subject(name, n, edges, rng, subset=(), relabel=False):
    """Subject from an edge list; ``subset`` is in the edges' labelling."""
    perm = list(range(n))
    if relabel:
        rng.shuffle(perm)
    edges = sorted({(perm[u], perm[v]) for u, v in edges})
    out = [1 << v for v in range(n)]
    for u, v in edges:
        out[u] |= 1 << v
    labels = [str(v) for v in range(n)]
    doc = {
        "schema": "1",
        "vertices": labels,
        "edges": sorted([labels[u], labels[v]] for u, v in edges),
    }
    subset = tuple(sorted(perm[v] for v in subset)) or None
    return Subject(name, n, tuple(out), json.dumps(doc, sort_keys=True), subset)


def _windowed(dv, shapes, rng, n, p, window, subset_size=None):
    """A random_digraph(n, p) with a simplex count in window, relabelled.

    ``shapes`` draws the digraph and its vertex subset and is the same for
    every seed; ``rng`` (seeded) draws the relabelling.  So a seed changes
    the order the program sees a pair (X, A) in, not the pair.
    """
    lo, hi = window
    for _ in range(10000):
        s = shapes.randrange(1 << 31)
        g = dv.random_digraph(n, p, s)
        edges = list(g.edges())
        out = [1 << v for v in range(n)]
        for u, v in edges:
            out[u] |= 1 << v
        if lo <= oracle.simplex_count(n, out) <= hi:
            subset = shapes.sample(range(n), subset_size) if subset_size else ()
            return _subject(f"random({n},{p},{s})", n, edges, rng, subset, relabel=True)
    raise RuntimeError(f"no random_digraph({n}, {p}) with {lo}..{hi} simplices")


def _subset_arg(subject):
    return ",".join(str(v) for v in subject.subset)


def _shell(a, b, c):
    return [
        (x, y, z)
        for x in range(a)
        for y in range(b)
        for z in range(c)
        if x in (0, a - 1) or y in (0, b - 1) or z in (0, c - 1)
    ]


def snf_z(dv, seed):
    """Integer homology, relative homology and pi1: Smith normal form bound."""
    shapes, rng = random.Random("snf-z"), random.Random(f"snf-z:{seed}")
    subjects = []
    # Eight 13-vertex and six 14-vertex subjects: the median op falls inside
    # the cluster of 13-vertex latencies and the tail op inside the 14-vertex
    # one, not in a gap between clusters.
    for n, window in [(13, (250, 300))] * 8 + [(14, (320, 380))] * 6:
        subjects.append(_windowed(dv, shapes, rng, n, 0.5, window, subset_size=n // 3))
    for n, m in ((20, 4), (22, 4)):
        g = dv.circulant(n, m)
        subset = shapes.sample(range(n), n // 3)
        subjects.append(
            _subject(f"circulant({n},{m})", n, g.edges(), rng, subset, relabel=True)
        )
    g = dv.digital_image(_shell(3, 3, 3))
    subset = shapes.sample(range(g.n), 8)
    subjects.append(_subject("shell(3,3,3)", g.n, g.edges(), rng, subset, relabel=True))
    ops = []
    for i, s in enumerate(subjects):
        ops.append(Op("homology-z", i, ["homology", "--coeff", "z"]))
        ops.append(Op("pair", i, ["pair", "--subset", _subset_arg(s)]))
        ops.append(Op("pi1", i, ["pi1", "--basepoint", "0"]))
    return Batch(subjects, ops)


def field_les(dv, seed):
    """Exactness of the long exact sequence and field Betti numbers."""
    shapes, rng = random.Random("field-les"), random.Random(f"field-les:{seed}")
    # Many small subjects: the tail op falls inside the dense cluster of
    # their les-check q calls, and a round is short enough for eight or more
    # rounds per run.  A single call's cost moves with the relabelling by up
    # to 25%.
    small = [_windowed(dv, shapes, rng, 7, 0.5, (30, 36), subset_size=3) for _ in range(24)]
    medium = [_windowed(dv, shapes, rng, 10, 0.5, (100, 120), subset_size=5) for _ in range(6)]
    subjects = small + medium
    ops = []
    for i, s in enumerate(subjects):
        if i < len(small):
            ops.append(Op("les-q", i, ["les-check", "--subset", _subset_arg(s),
                                       "--coeff", "q"]))
        ops.append(Op("les-zp:2", i, ["les-check", "--subset", _subset_arg(s),
                                      "--coeff", "zp:2"]))
        ops.append(Op("homology-q", i, ["homology", "--coeff", "q"]))
        ops.append(Op("homology-zp:3", i, ["homology", "--coeff", "zp:3"]))
        # Integer homology, only to check the Q Betti numbers against it.
        ops.append(Op("homology-z", i, ["homology", "--coeff", "z"], timed=False))
    return Batch(subjects, ops)


def build_fx(dv, seed):
    """Complex construction, witnesses and the nearest-vertex map."""
    shapes, rng = random.Random("build-fx"), random.Random(f"build-fx:{seed}")
    subjects = [_windowed(dv, shapes, rng, 14, 0.65, (900, 1100)) for _ in range(10)]
    ops = []
    for i in range(len(subjects)):
        ops.append(Op("complex", i, ["complex"]))
        ops.append(Op("fx-certify", i, ["fx-certify"]))
        samples = 500
        # Two sample draws per subject put the median op among the
        # fx-certify calls, not in the gap between two kinds of op.
        for _ in range(2):
            ops.append(Op("fx-sample", i, [
                "fx-sample", "--samples", str(samples), "--delta", "1/1000000",
                "--seed", str(rng.randrange(1 << 31))], expect=samples))
        ops.append(Op("pi1", i, ["pi1", "--basepoint", "0"], source="complex"))
    return Batch(subjects, ops)


CORPUS_PS = (0.2, 0.4, 0.7)


def small_corpus(dv, seed):
    """The acceptance corpus: 201 tiny digraphs through seven commands.

    The digraphs are those of tests/test_acceptance.py; the seed relabels
    their vertices.
    """
    shapes, rng = random.Random("small-corpus"), random.Random(f"small-corpus:{seed}")
    subjects = []
    for i in range(201):
        n, p, s = 2 + i % 7, CORPUS_PS[i % 3], 1000 + i
        g = dv.random_digraph(n, p, s)
        subset = shapes.sample(range(n), max(1, n // 2))
        subjects.append(
            _subject(f"random({n},{p},{s})", n, g.edges(), rng, subset, relabel=True)
        )
    ops = []
    for i, s in enumerate(subjects):
        sub = _subset_arg(s)
        ops.append(Op("complex", i, ["complex"]))
        ops.append(Op("homology-z", i, ["homology", "--coeff", "z"]))
        ops.append(Op("homology-zp:2", i, ["homology", "--coeff", "zp:2"]))
        ops.append(Op("pair", i, ["pair", "--subset", sub]))
        ops.append(Op("pi1", i, ["pi1", "--basepoint", "0"]))
        ops.append(Op("fx-certify", i, ["fx-certify"]))
        ops.append(Op("les-zp:2", i, ["les-check", "--subset", sub, "--coeff", "zp:2"]))
    return Batch(subjects, ops)


WORKLOADS = {
    "snf-z": snf_z,
    "field-les": field_les,
    "build-fx": build_fx,
    "small-corpus": small_corpus,
}
