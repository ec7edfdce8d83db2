"""Directed Vietoris-Rips (directed clique) complexes.

A vertex set is a simplex when its members admit an ordering v0,...,vk with
an edge v_i -> v_j whenever i < j.  Such an ordering is the simplex's
*witness*; it is not unique once bidirected edges exist, so construction
fixes a canonical one: the lexicographically least ordering, found by
greedily peeling off the smallest vertex with an edge to every other
remaining vertex.  The builder never peels a whole set: the first vertex
peeled from tau leaves the face tau-s, whose own greedy peel is its
witness, so one lookup in the level below finishes tau's witness (the
inductive construction of Zomorodian, "Fast construction of the
Vietoris-Rips complex", 2010).  So the builder keeps, per simplex, the
index of s and the position of tau-s in the level below, not the witness:
homology and pi1 never read witnesses, and the few that do (the
nearest-vertex map and the ``complex`` report) make them on first read, a
level at a time.  A complex made from faces (``from_simplices``, or the
document reader's ``from_faces_by_size``) keeps each level's faces in one
dict that maps a face to its witness, by one rule: a face with no given
witness, a facet the closure adds included, keeps its sorted tuple.
Either way a complex keeps its witnesses only as ``orders``.  Simplices
are identified by their sorted vertex tuple; the witness is metadata.

For symmetric digraphs the construction degenerates to the clique complex.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, groupby, repeat

from .digraph import InputError


class SimplicialComplex:
    """Face-closed family of simplices, graded by dimension.

    ``by_dimension[d]`` lists the d-simplices as sorted vertex tuples, in
    lexicographic order, and ``orders[d]`` their witness orderings, in the
    same order.  ``orders`` is given, or made when first read, and kept:
    from ``links``, which ``build_complex`` gives, per level above 0, as the
    index of each simplex's first witness vertex in level 0 and the position
    of the rest of its witness in the level below, else as the sorted
    tuples.  ``s in k`` bisects the sorted ``s`` into its level, and
    ``orders`` at that position is its witness.  What is given is kept, not
    copied.  ``truncated`` marks complexes cut off by a dimension cap (the
    top homology degree of such a complex is unreliable).
    """

    def __init__(self, by_dimension, orders=None, truncated=False, links=None):
        while by_dimension and not by_dimension[-1]:
            by_dimension.pop()
        self.by_dimension = by_dimension
        self._orders = orders
        self._links = links
        self.truncated = truncated

    @property
    def orders(self):
        if self._orders is None:
            orders = [list(level) for level in self.by_dimension[:1]]
            for sources, faces in (self._links or ())[: self.dim]:
                first, below = self.by_dimension[0], orders[-1]
                orders.append([first[s] + below[f] for s, f in zip(sources, faces)])
            orders += map(list, self.by_dimension[len(orders) :])  # sorted tuples
            self._orders, self._links = orders, None
        return self._orders

    @classmethod
    def from_simplices(cls, faces, witnesses=None):
        """Abstract complex from arbitrary vertex sets, closed under faces.

        Witnesses default to the sorted vertex tuple (the natural reading for
        complexes without an ambient digraph).  Given ones are checked after
        the closure, in the order given: the first that names no face of the
        closure, or is not an ordering of its face, is an error.
        """
        faces = sorted(map(tuple, map(sorted, map(set, faces))), key=len)
        by_size = {size: {s: s for s in level} for size, level in groupby(faces, len)}
        k = cls.from_faces_by_size(by_size)
        for s, w in (witnesses or {}).items():
            s = tuple(s)
            pos = _position(k, s)
            if pos is None:
                raise InputError(f"witness given for missing simplex {s}")
            if tuple(sorted(w)) != s:
                raise InputError(f"witness {w} is not an ordering of {s}")
            k.orders[len(s) - 1][pos] = tuple(w)
        return k

    @classmethod
    def from_faces_by_size(cls, by_size):
        """The complex of faces grouped by size: ``by_size[k]`` maps sorted
        k-vertex tuples to their witnesses, which are not checked (the
        document reader checks them).  ``by_size`` is closed in place, top
        down: each level adds the facets the level below lacks, each as its
        own witness.  The levels and ``orders`` are read off the dicts, which
        keep the given faces first, so a closed and sorted input sorts again
        in linear time and needs no lookups.
        """
        if 0 in by_size:
            raise InputError("simplices must be nonempty")
        top = max(by_size, default=0)
        for k in range(top, 1, -1):
            below = by_size.setdefault(k - 1, {})
            missing = set(_facets(by_size[k], k)).difference(below)
            below.update(zip(missing, missing))
        dicts = [by_size[k] for k in range(1, top + 1)]
        levels = list(map(sorted, dicts))
        return cls(levels, [
            list(d.values() if level == list(d) else map(d.__getitem__, level))
            for level, d in zip(levels, dicts)
        ])

    def simplices(self):
        """Every simplex, level by level, as one iterator over the levels."""
        return chain.from_iterable(self.by_dimension)

    def __contains__(self, verts):
        return _position(self, tuple(sorted(verts))) is not None

    @property
    def dim(self):
        return len(self.by_dimension) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.by_dimension == other.by_dimension and self.orders == other.orders
        )

    def __repr__(self):
        return f"SimplicialComplex(f_vector={f_vector(self)!r})"


def _position(k, face):
    """The position of ``face``, a sorted vertex tuple, in its level of
    ``k``, or None when it is no simplex of ``k``."""
    if 0 < len(face) <= len(k.by_dimension):
        level = k.by_dimension[len(face) - 1]
        pos = bisect_left(level, face)
        if pos < len(level) and level[pos] == face:
            return pos
    return None


def _facets(level, k):
    """Every facet of every k-vertex tuple in ``level``, repeats included."""
    return chain.from_iterable(map(combinations, level, repeat(k - 1)))


def build_complex(g, max_dim=None):
    """Directed Vietoris-Rips complex of ``g`` up to ``max_dim``.

    Level by level, in lexicographic order.  Each d-simplex sigma carries
    ``common``, the vertices with an edge to all of sigma, and ``cand``, the
    vertices above max(sigma) semicomplete-adjacent to all of it.  For a
    candidate tau = sigma+{w}, w in ``cand``, the lowest vertex s of tau with
    an edge to all of tau starts tau's greedy peel.  Faces of simplices are
    simplices, so tau is one exactly when tau-s is a d-simplex, and its
    witness is (s,) followed by the witness of tau-s: one lookup in the
    level below, no fresh peel.  The builder records s and the position of
    tau-s, from which the complex makes witnesses when they are first read.
    Output is deterministic.
    """
    if max_dim is not None and max_dim < 0:
        raise InputError("dimension cap must be >= 0")
    ins, sym = g._in, g._sym
    # One entry per simplex, keyed by vertex mask: (sorted tuple, position
    # in its level, common, cand).  Only the current and the next level are
    # kept.
    level = {
        1 << v: ((v,), v, ins[v], sym[v] >> (v + 1) << (v + 1)) for v in range(g.n)
    }
    levels, links = [[(v,) for v in range(g.n)]], []
    while level:
        if max_dim is not None and len(levels) > max_dim:
            # Probe one level further so consumers can flag the capped degree.
            truncated = bool(_next_level(ins, sym, level, first_only=True)[0])
            return SimplicialComplex(levels, None, truncated, links)
        level, simplices, sources, faces = _next_level(ins, sym, level)
        levels.append(simplices)
        links.append((sources, faces))
    return SimplicialComplex(levels, None, links=links)


def _next_level(ins, sym, prev, first_only=False):
    """The level above ``prev``, as ``build_complex`` keeps it, with its
    simplices, the vertex s of each and the position of each tau-s in
    ``prev``, in order."""
    nxt, simplices, sources, faces = {}, [], [], []
    for mask, (sigma, _, common, cand) in prev.items():
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            tau = mask | low
            tau_common = common & ins[w]
            src = tau_common & tau
            if src:
                s = src & -src
                face = prev.get(tau ^ s)
                if face is not None:
                    t = sigma + (w,)
                    nxt[tau] = (t, len(simplices), tau_common, cand & sym[w])
                    simplices.append(t)
                    sources.append(s.bit_length() - 1)
                    faces.append(face[1])
                    if first_only:
                        return nxt, simplices, sources, faces
    return nxt, simplices, sources, faces


def f_vector(k):
    """Simplex counts per dimension; the empty complex gives ()."""
    return tuple(len(level) for level in k.by_dimension)
