"""Finite digraphs stored as reflexive relations (closure spaces).

Every digraph here is *spatial*: a loop is kept at each vertex, so the edge
relation doubles as an Alexandroff closure operator.  Orientation
conventions, fixed once and documented in the README:

* closure follows out-edges: c({x}) = {y : x -> y} is ``out_set(x)``;
* the minimal neighborhood collects in-edges: U_x = {y : y -> x} is
  ``in_set(x)``;
* the interior of A is the complement of the closure of its complement,
  which ``is_interior_cover`` tests.

The closure, interior and minimal neighborhood of a vertex set, and the
induced subgraph, are test references in ``tests/oracles.py``.

Adjacency is held as one integer bitmask per vertex, so membership tests
and the semicomplete-neighbor queries of the complex builder are O(n/word).
Digraph values are immutable after construction.
"""

from __future__ import annotations


class InputError(ValueError):
    """Input outside an operation's contract (bad index, empty set, ...)."""


# The 58,808 points of the digital shell of a 100^3 cube fit below this.
_MAX_VERTICES = 1 << 16


def _check_order(n):
    """Refuse more than ``_MAX_VERTICES`` vertices, before n bitmasks of up
    to n bits each are allocated."""
    if n > _MAX_VERTICES:
        raise InputError(f"{n} vertices exceed the limit of {_MAX_VERTICES}")


def _iter_bits(mask):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(verts):
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def _verts_of(mask):
    return tuple(_iter_bits(mask))


class Digraph:
    """Immutable digraph on vertices 0..n-1 with loops at every vertex."""

    __slots__ = ("n", "_out", "_in", "_sym", "labels")

    def __init__(self, n, out_masks, in_masks, labels=None):
        self.n = n
        self._out = tuple(out_masks)
        self._in = tuple(in_masks)
        self._sym = tuple(o | i for o, i in zip(out_masks, in_masks))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError(f"{len(labels)} labels for {n} vertices")
            if len(set(labels)) != n:
                raise InputError("vertex labels must be unique")
        self.labels = labels

    @classmethod
    def from_edge_list(cls, n, edges, labels=None):
        """Build the spatial digraph on ``n`` vertices from ordered pairs.

        Loops are always added; duplicate edges and explicit loops collapse.
        """
        _check_order(n)
        out = [1 << v for v in range(n)]
        inc = [1 << v for v in range(n)]
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            out[u] |= 1 << v
            inc[v] |= 1 << u
        return cls(n, out, inc, labels=labels)

    def has_edge(self, u, v):
        return (self._out[u] >> v) & 1 == 1

    def out_set(self, u):
        return _verts_of(self._out[u])

    def in_set(self, u):
        return _verts_of(self._in[u])

    def out_mask(self, u):
        return self._out[u]

    def in_mask(self, u):
        return self._in[u]

    def sym_mask(self, u):
        return self._sym[u]

    def edges(self):
        """Ordered pairs (u, v) other than loops, sorted."""
        for u in range(self.n):
            for v in _iter_bits(self._out[u]):
                if u != v:
                    yield (u, v)

    # Equality is vertex count plus edge set; labels are presentation-only.
    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self):
        return hash((self.n, self._out))

    def __repr__(self):
        m = sum(1 for _ in self.edges())
        return f"Digraph(n={self.n}, edges={m})"


def _vertex_set(g, a):
    """Normalize an iterable of vertices to a sorted duplicate-free tuple."""
    vs = sorted(set(a))
    for v in vs:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for {g.n} vertices")
    return tuple(vs)


def _closure_mask(g, mask):
    c = 0
    for x in _iter_bits(mask):
        c |= g._out[x]
    return c


def _interior_mask(g, mask):
    full = (1 << g.n) - 1
    return full & ~_closure_mask(g, full & ~mask)


def is_interior_cover(g, family):
    """True iff the interiors of the family's members cover every vertex."""
    covered = 0
    for a in family:
        covered |= _interior_mask(g, _mask_of(_vertex_set(g, a)))
    return covered == (1 << g.n) - 1
