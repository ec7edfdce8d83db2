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
Vietoris-Rips complex", 2010).  Simplices are identified by their sorted
vertex tuple; the witness is metadata.

For symmetric digraphs the construction degenerates to the clique complex.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import combinations

from .digraph import InputError, _iter_bits, induced_subgraph, minimal_neighborhood


class SimplicialComplex:
    """Face-closed family of simplices, graded by dimension.

    ``by_dimension[d]`` lists the d-simplices as sorted vertex tuples, in
    lexicographic order; ``witness`` maps each tuple to its witness ordering.
    The keys of ``witness`` are exactly the simplices, so it is also the
    membership map.  Both are kept as given, not copied.  ``truncated``
    marks complexes cut off by a dimension cap (the top homology degree of
    such a complex is unreliable).
    """

    def __init__(self, by_dimension, witness, truncated=False):
        while by_dimension and not by_dimension[-1]:
            by_dimension.pop()
        self.by_dimension = by_dimension
        self.witness = witness
        self.truncated = truncated

    @classmethod
    def from_simplices(cls, faces, witnesses=None):
        """Abstract complex from arbitrary vertex sets, closed under faces.

        Witnesses default to the sorted vertex tuple (the natural reading for
        complexes without an ambient digraph).
        """
        by_size = {}
        for f in faces:
            f = tuple(sorted(set(f)))
            by_size.setdefault(len(f), set()).add(f)
        return cls.from_faces_by_size(by_size, witnesses)

    @classmethod
    def from_faces_by_size(cls, by_size, witnesses=None):
        """``from_simplices`` of faces already grouped: ``by_size[k]`` is a
        set of sorted k-vertex tuples, and is filled in place.

        The closure runs top down: each simplex adds only its facets to the
        level below, whose own simplices then add theirs.
        """
        if 0 in by_size:
            raise InputError("simplices must be nonempty")
        top = max(by_size, default=0)
        for k in range(top, 1, -1):
            below = by_size.setdefault(k - 1, set())
            for s in by_size[k]:
                below.update(combinations(s, k - 1))
        by_dim = [sorted(by_size[k]) for k in range(1, top + 1)]
        witness = {s: s for level in by_dim for s in level}
        if witnesses:
            for s, w in witnesses.items():
                s = tuple(s)
                if s not in witness:
                    raise InputError(f"witness given for missing simplex {s}")
                if tuple(sorted(w)) != s:
                    raise InputError(f"witness {w} is not an ordering of {s}")
                witness[s] = tuple(w)
        return cls(by_dim, witness)

    def simplices(self):
        for level in self.by_dimension:
            yield from level

    def __contains__(self, verts):
        return tuple(sorted(verts)) in self.witness

    @property
    def dim(self):
        return len(self.by_dimension) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.by_dimension == other.by_dimension and self.witness == other.witness
        )

    def __repr__(self):
        return f"SimplicialComplex(f_vector={f_vector(self)!r})"


def is_simplex(g, s):
    """Witness ordering of ``s`` in ``g``, or None if no ordering exists.

    The witness is the lexicographically least valid ordering (see
    ``_witness``), so the result is canonical.
    """
    s = tuple(sorted(set(s)))
    if not s:
        raise InputError("is_simplex needs a nonempty vertex set")
    mask = 0
    for v in s:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for {g.n} vertices")
        mask |= 1 << v
    return _witness(g._in, mask)


def _witness(ins, mask):
    """Lexicographically least witness ordering of the vertex set ``mask``.

    ``ins[v]`` is the in-mask of v, loops included.  The first vertex of any
    witness has an edge to every other member, and dropping it leaves a face,
    which is again a simplex; so repeatedly peeling off the smallest such
    vertex either empties the set, in lexicographically least order, or finds
    none and proves there is no witness.
    """
    order = []
    while mask:
        common = mask
        for v in _iter_bits(mask):
            common &= ins[v]
        if not common:
            return None
        low = common & -common
        order.append(low.bit_length() - 1)
        mask ^= low
    return tuple(order)


def build_complex(g, max_dim=None):
    """Directed Vietoris-Rips complex of ``g`` up to ``max_dim``.

    Level by level, in lexicographic order.  Each d-simplex sigma carries
    ``common``, the vertices with an edge to all of sigma, and ``cand``, the
    vertices above max(sigma) semicomplete-adjacent to all of it.  For a
    candidate tau = sigma+{w}, w in ``cand``, the lowest vertex s of tau with
    an edge to all of tau starts tau's greedy peel.  Faces of simplices are
    simplices, so tau is one exactly when tau-s is a d-simplex, and its
    witness is (s,) followed by the witness of tau-s: one lookup in the
    level below, no fresh peel.  Output is deterministic.
    """
    if max_dim is not None and max_dim < 0:
        raise InputError("dimension cap must be >= 0")
    ins, sym = g._in, g._sym
    # One entry per simplex, keyed by vertex mask: (sorted tuple, witness,
    # common, cand).  Only the current and the next level are kept.
    level = {
        1 << v: ((v,), (v,), ins[v], sym[v] >> (v + 1) << (v + 1))
        for v in range(g.n)
    }
    levels, witness = [], {(v,): (v,) for v in range(g.n)}
    while level:
        levels.append([s for s, _, _, _ in level.values()])
        if max_dim is not None and len(levels) > max_dim:
            # Probe one level further so consumers can flag the capped degree.
            truncated = bool(_next_level(ins, sym, level, {}, first_only=True))
            return SimplicialComplex(levels, witness, truncated=truncated)
        level = _next_level(ins, sym, level, witness)
    return SimplicialComplex(levels, witness)


def _next_level(ins, sym, prev, witness, first_only=False):
    nxt = {}
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
                    witness[t] = order = (s.bit_length() - 1,) + face[1]
                    nxt[tau] = (t, order, tau_common, cand & sym[w])
                    if first_only:
                        return nxt
    return nxt


def f_vector(k):
    """Simplex counts per dimension; the empty complex gives ()."""
    return tuple(len(level) for level in k.by_dimension)


def restrict_to(k, a):
    """Full subcomplex of ``k`` on the vertex subset ``a`` (same ids)."""
    aset = set(a)
    by_dim = [
        [s for s in level if aset.issuperset(s)] for level in k.by_dimension
    ]
    witness = {s: k.witness[s] for level in by_dim for s in level}
    return SimplicialComplex(by_dim, witness, truncated=k.truncated)


def check_full_subcomplex(g, a, max_dim=None):
    """Executable check that restriction and induced construction agree.

    Compares the simplices of the whole complex supported inside ``a``
    against the complex built from the induced subgraph; both inclusions are
    required.  Expected to hold universally.
    """
    a = tuple(sorted(set(a)))
    if not a:
        raise InputError("check_full_subcomplex needs a nonempty vertex set")
    whole = build_complex(g, max_dim)
    local = build_complex(induced_subgraph(g, a), max_dim)
    pos = {v: i for i, v in enumerate(a)}
    aset = set(a)
    restricted = {
        tuple(pos[v] for v in s) for s in whole.simplices() if aset.issuperset(s)
    }
    return restricted == set(local.simplices())


def check_cone(g, x):
    """Check that the complex of U_x is a combinatorial cone with apex x.

    Expected to hold for every digraph and vertex; a failure means witness
    or adjacency corruption.
    """
    u = minimal_neighborhood(g, x)
    sub = induced_subgraph(g, u)
    apex = u.index(x)
    k = build_complex(sub)
    return all(tuple(sorted(set(s) | {apex})) in k for s in k.simplices())


SimplicialMapReport = namedtuple(
    "SimplicialMapReport", "vertex_map entries degenerate all_images_present"
)
SimplicialMapReport.__doc__ = """Image data of a vertex map applied simplexwise.

``entries`` pairs each source simplex with its image simplex, and
``degenerate`` lists the source simplices whose image drops dimension.
"""


def map_complex(f, source, target):
    """Apply a digraph morphism to every simplex and confirm the images.

    ``f`` maps source vertices to target vertices (sequence or mapping); it
    must send edges to edges, which is verified, not assumed.
    """
    if not isinstance(f, (Sequence, Mapping)):
        raise InputError(
            f"the vertex map ({type(f).__name__}) is neither a sequence nor a mapping"
        )
    fmap = []
    for v in range(source.n):
        try:
            fmap.append(f[v])
        except (IndexError, KeyError):
            raise InputError(f"vertex {v} has no image") from None
        if type(fmap[v]) is not int or not 0 <= fmap[v] < target.n:
            raise InputError(f"vertex {v} maps to {fmap[v]!r}, outside the target")
    for u in range(source.n):
        for v in source.out_set(u):
            if not target.has_edge(fmap[u], fmap[v]):
                raise InputError(
                    f"not a digraph morphism: edge ({u}, {v}) maps to "
                    f"non-edge ({fmap[u]}, {fmap[v]})"
                )
    ks = build_complex(source)
    kt = build_complex(target)
    entries = []
    degenerate = []
    ok = True
    for s in ks.simplices():
        image = tuple(sorted({fmap[v] for v in s}))
        entries.append((s, image))
        if len(image) < len(s):
            degenerate.append(s)
        if image not in kt:
            ok = False
    return SimplicialMapReport(tuple(fmap), tuple(entries), tuple(degenerate), ok)
