"""Deterministic digraph constructors: fixtures and random test corpora."""

from __future__ import annotations

import random

from .digraph import Digraph, InputError, _check_order


def circulant(n, m):
    """Symmetric digraph on Z_n where u ~ v iff circular distance <= m."""
    _check_order(n)
    if n < 1:
        raise InputError("circulant needs n >= 1")
    if not (0 <= m <= n):
        raise InputError("circulant needs 0 <= m <= n")
    edges = []
    for u in range(n):
        for k in range(1, m + 1):
            edges.append((u, (u + k) % n))
            edges.append((u, (u - k) % n))
    return Digraph.from_edge_list(n, edges)


def digital_image(points):
    """Symmetric digraph on lattice points, adjacent iff max-norm gap <= 1.

    Diagonal neighbors count: adjacency is coordinatewise |x_i - y_i| <= 1.
    Each point's neighbours are found one coordinate at a time: a candidate
    prefix is extended by x - 1, x and x + 1 and kept only when it is the
    prefix of some point, so no point looks at its 3^d - 1 offsets.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != len(pts):
        raise InputError("digital image points must be distinct")
    if len({len(p) for p in pts}) > 1:
        raise InputError("digital image points must share one dimension")
    prefixes = {p[:k] for p in pts for k in range(1, len(p) + 1)}
    edges = []
    for i, p in enumerate(pts):
        near = [()]
        for x in p:
            steps = (x - 1, x, x + 1)
            near = [q for c in near for y in steps if (q := c + (y,)) in prefixes]
        edges += [(i, index[q]) for q in near if q != p]
    labels = [",".join(str(c) for c in p) for p in pts]
    return Digraph.from_edge_list(len(pts), edges, labels=labels)


_FIGURES = {
    "left": [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
    "middle": [(0, 1), (0, 2), (3, 0), (1, 3), (2, 3)],
    "right": [(0, 1), (0, 2), (1, 3), (2, 3)],
}


def figure_digraph(which):
    """Three four-vertex fixtures (A,B,C,D = 0..3) used throughout the tests.

    left   : A->B, A->C, A->D, B->D, C->D   (complex is a filled square)
    middle : A->B, A->C, D->A, B->D, C->D   (square with unfilled diagonal)
    right  : A->B, A->C, B->D, C->D         (hollow square)
    """
    if which not in _FIGURES:
        raise InputError(f"unknown figure {which!r}; pick left, middle or right")
    return Digraph.from_edge_list(4, _FIGURES[which], labels=("A", "B", "C", "D"))


def random_digraph(n, p, seed):
    """Seeded digraph: each ordered non-loop pair gets an edge with prob p."""
    _check_order(n)
    if n < 0:
        raise InputError("random digraph needs n >= 0")
    if not (0 <= p <= 1):
        raise InputError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v))
    return Digraph.from_edge_list(n, edges)
