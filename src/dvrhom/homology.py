"""Simplicial chain complexes and their homology over Z, Q and Z_p.

Simplices are oriented by their sorted vertex tuple, independent of the
witness ordering used during construction, so boundary signs are
reproducible.  Homology of a complex, and of a pair as its quotient
complex, comes from one top-down reduction, ``_reduce``: each boundary map
is built as sparse rows over the simplex bases, skips the columns cleared
by the map above it, and goes through the unit-pivot elimination of
``matrices``; only the small non-unit core left over needs a dense Smith
form (over Z) or ``field_rank`` (over Z_p).  The long exact sequence check
needs explicit homology classes, not just ranks.  Its chains are
``{simplex: coefficient}`` dicts, so X, A and X/A share one index.  In each
degree one sparse echelon basis over the field, ``matrices._Echelon``,
takes the boundaries, top-down and with the same clearing, and then the
cycles; it picks the homology representatives and writes any cycle in
terms of them.  The maps of the sequence are induced by three chain maps,
and the same eliminator gives their ranks and checks that consecutive maps
compose to zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .digraph import InputError
from .matrices import (
    IntegerMatrix,
    _dense_factors,
    _Echelon,
    _unit_eliminate,
    field_rank,
    invariant_factors,
)


@dataclass(frozen=True)
class HomologyGroup:
    """Free rank plus ordered torsion coefficients of one degree."""

    betti: int
    torsion: tuple = ()

    def is_zero(self):
        return self.betti == 0 and not self.torsion

    def __repr__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass
class HomologyResult:
    """Homology groups per degree, with bookkeeping flags.

    ``truncated`` marks results computed from a dimension-capped complex,
    whose top degree may be missing boundaries and is therefore unreliable.
    """

    groups: list
    reduced: bool = False
    truncated: bool = False

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, i):
        return self.groups[i]

    def betti_numbers(self):
        return tuple(g.betti for g in self.groups)


# Miller-Rabin on the primes up to 41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2017).
_PRIME_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Deterministic Miller-Rabin test, exact for p < _PRIME_LIMIT."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if x not in (1, p - 1) and all(
            (x := x * x % p) != p - 1 for _ in range(s - 1)
        ):
            return False
    return True


def _parse_field(spec):
    """None for the rationals, a verified prime below _PRIME_LIMIT for Z_p."""
    if isinstance(spec, str):
        if spec.lower() == "q":
            return None
        raise InputError(f"unknown coefficient field {spec!r}")
    if not isinstance(spec, int):
        raise InputError(f"coefficient field {spec!r} is not an integer")
    if spec >= _PRIME_LIMIT:
        raise InputError(f"prime fields need p < {_PRIME_LIMIT}")
    if not _is_prime(spec):
        raise InputError(f"{spec} is not prime")
    return spec


def _boundary_rows(bases, n, skip=()):
    """The n-th boundary map over ``bases`` as ``{face: {simplex: +-1}}``.

    Faces and simplices are positions in ``bases[n - 1]`` and ``bases[n]``.
    Simplices in ``skip`` and faces outside the basis (in the subcomplex of
    a pair) are left out.  Deleting the i-th vertex has sign (-1)^i.
    """
    rows = {}
    if not 0 < n < len(bases):
        return rows
    face_pos = {s: i for i, s in enumerate(bases[n - 1])}
    for j, simplex in enumerate(bases[n]):
        if j in skip:
            continue
        for i in range(len(simplex)):
            r = face_pos.get(simplex[:i] + simplex[i + 1 :])
            if r is not None:
                rows.setdefault(r, {})[j] = -1 if i & 1 else 1
    return rows


def boundary_matrix(k, n):
    """Matrix of the n-th boundary map, columns indexed by n-simplices.

    Rows follow the canonical order of (n-1)-simplices; the entry for
    deleting the i-th vertex of the sorted support is (-1)^i.  The 0-th
    boundary is the zero map to a rank-0 target; degrees above the top
    dimension give zero matrices of the appropriate shape.
    """
    if n < 0:
        raise InputError("boundary degree must be >= 0")
    bases = k.by_dimension
    mat = IntegerMatrix(
        len(bases[n - 1]) if 0 < n <= len(bases) else 0,
        len(bases[n]) if n < len(bases) else 0,
    )
    rows = _boundary_rows(bases, n).items()
    mat.entries = {(i, j): v for i, row in rows for j, v in row.items()}
    return mat


def _reduce(bases, p=None):
    """Ranks and torsion of every boundary map over ``bases``, top-down.

    Entry n of each list is for the map of degree n = 0 .. top + 1; ranks
    are over Z (hence Q) when p is None, else over Z_p.  Clearing: the map
    d of degree n skips the columns of the pivot rows R of the unit
    elimination of the map B above it.  B[R, :] has invariant factors all
    1, so an integer right inverse X, and d B = 0 gives d[:, R] =
    -d[:, ~R] B[~R, :] X: d keeps its invariant factors without them.  The
    non-unit core never clears.
    """
    ranks, torsion = [0] * (len(bases) + 1), [()] * (len(bases) + 1)
    cleared = ()
    for n in range(len(bases) - 1, 0, -1):
        pivots, core = _unit_eliminate(_boundary_rows(bases, n, cleared))
        if p is None:
            d = _dense_factors(core)
            ranks[n] = len(pivots) + len(d)
            torsion[n] = tuple(x for x in d if x > 1)
        else:
            ranks[n] = len(pivots) + field_rank(core, p)
        cleared = set(pivots)
    return ranks, torsion


def _homology_groups(bases, p=None, reduced=False):
    """Homology groups over ``bases``; ``reduced`` adds the augmentation."""
    ranks, torsion = _reduce(bases, p)
    if reduced and bases:
        ranks[0] = 1
    return [
        HomologyGroup(len(basis) - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n, basis in enumerate(bases)
    ]


def homology_integer(k, reduced=False):
    """Integer homology of the complex: Betti numbers and torsion."""
    groups = _homology_groups(k.by_dimension, reduced=reduced)
    return HomologyResult(groups, reduced=reduced, truncated=k.truncated)


def homology_field(k, field_spec, reduced=False):
    """Betti numbers over Q (field_spec="q") or Z_p (p prime, p < 3.3e24)."""
    p = _parse_field(field_spec)
    return [g.betti for g in _homology_groups(k.by_dimension, p, reduced)]


def _require_subcomplex(k, sub):
    for s in sub.simplices():
        if s not in k.witness:
            raise InputError(f"simplex {s} of the subcomplex is not in the complex")


def _relative_bases(k, sub):
    return [[s for s in level if s not in sub.witness] for level in k.by_dimension]


def relative_homology(k, sub):
    """Homology of the quotient chain complex of the pair (k, sub).

    The quotient basis in each degree is the simplices of ``k`` outside
    ``sub``; boundary entries landing in ``sub`` are deleted.
    """
    _require_subcomplex(k, sub)
    groups = _homology_groups(_relative_bases(k, sub))
    return HomologyResult(groups, truncated=k.truncated)


# ---------------------------------------------------------------------------
# Long exact sequence of a pair, verified over a field.


@dataclass(frozen=True)
class NodeReport:
    name: str
    dim: int
    rank_in: int
    rank_out: int
    exact: bool


@dataclass
class ExactnessReport:
    field: str
    nodes: list
    exact: bool


def _boundary(chain, faces):
    """Boundary of a chain ``{simplex: coefficient}`` on the faces in ``faces``.

    Deleting the i-th vertex has sign (-1)^i.  Entries may be zero;
    ``_Echelon`` drops them.
    """
    image = {}
    for s, c in chain.items():
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face in faces:
                image[face] = image.get(face, 0) + (-c if i & 1 else c)
    return image


class _FieldComplex:
    """Chain complex over a field with explicit homology coordinates.

    Chains are ``{simplex: coefficient}`` dicts.  Within a degree the
    lexicographic order of the simplices is the basis order, so the pivot
    of a vector is its largest simplex.  Degrees are visited top-down.  In
    degree n the boundary of each n-simplex goes into the echelon basis of
    degree n - 1, tagged with the simplex; a column that reduces to zero
    leaves its chain as a cycle.  Clearing skips the n-simplices that are
    pivots of the boundaries of degree n + 1: such a simplex is the largest
    of a boundary z, so its cycle lies in z plus the span of the earlier
    cycles and would be no representative.  The cycles then go, in order,
    into the basis of degree n, which holds those boundaries with their
    chains dropped (boundaries are zero in homology).  A cycle that is
    stored is a homology representative, tagged with its own index, so
    every tag gives its vector's class in terms of the representatives.
    """

    def __init__(self, bases, p):
        self.hom_reps = [[] for _ in bases]
        self.spans = [_Echelon(p) for _ in bases]
        for n in range(len(bases) - 1, -1, -1):
            span = self.spans[n]
            below = self.spans[n - 1] if n else _Echelon(p)
            faces = set(bases[n - 1]) if n else ()
            cycles = []
            for s in bases[n]:
                if s not in span.rows:
                    vec, chain = below.add(_boundary({s: 1}, faces), {s: 1})
                    if not vec:
                        cycles.append(chain)
            below.rows = {i: (vec, {}) for i, (vec, _) in below.rows.items()}
            reps = self.hom_reps[n]
            for z in cycles:
                if span.add(z, {len(reps): 1})[0]:
                    reps.append(z)

    def coords(self, n, chain):
        """Class of a cycle of degree n, as ``{representative index: coefficient}``.

        A chain that is no cycle, or that leaves the basis, is refused.
        """
        span = self.spans[n]
        vec, tag = span.reduce(chain)
        if vec:
            raise InputError("chain is not a cycle of the chain complex")
        # chain is a combination of stored vectors, each equal in homology
        # to its tag; reduce subtracted that combination from the tag.
        return {h: span.norm(-c) for h, c in tag.items()}


def _kills(field, out, into):
    """Whether the classes ``out`` send each class of ``into`` to 0, in ``field``.

    Class ``h`` of ``out`` is the image of representative ``h``; classes are
    sparse ``{representative index: coefficient}`` without zero entries.
    """
    for col in into:
        image = {}
        for h, c in col.items():
            field.subtract(image, -c, out[h])
        if image:
            return False
    return True


def les_exactness_check(k, sub, field_spec):
    """Verify exactness of the homology long exact sequence of (k, sub).

    Works over a field (Q or Z_p) so homology is vector spaces; computes the
    three families of groups, the induced maps between them, and checks
    image = kernel at every node.  Expected to pass for every valid pair.
    """
    p = _parse_field(field_spec)
    _require_subcomplex(k, sub)
    label = "q" if p is None else f"zp:{p}"
    if not k.by_dimension:
        return ExactnessReport(label, [], True)

    in_a = sub.witness  # keyed by the simplices of A
    a_bases = [[s for s in level if s in in_a] for level in k.by_dimension]
    cx, ca, cr = (
        _FieldComplex(b, p)
        for b in (k.by_dimension, a_bases, _relative_bases(k, sub))
    )
    # Each node's map to the next is induced by a chain map that lowers the
    # degree by 0 or 1: the inclusion of A, dropping the simplices of A, and
    # the boundary in X of a relative cycle, which lies in A (ca.coords
    # refuses it otherwise).  H0(X,A) maps to 0.
    steps = (
        ("A", ca, cx, 0, lambda z: z),
        ("X", cx, cr, 0, lambda z: {s: c for s, c in z.items() if s not in in_a}),
        ("X,A", cr, ca, 1, lambda z: _boundary(z, k.witness)),
    )
    nodes = []
    into, rank_in = [], 0  # the map into the next node, and its rank
    for n in range(k.dim, -1, -1):
        for name, c, target, drop, chain_map in steps:
            # The classes of the images of the representatives.
            out = [
                target.coords(n - drop, chain_map(z)) if n >= drop else {}
                for z in c.hom_reps[n]
            ]
            span = _Echelon(p)
            for col in out:
                span.add(col)
            rank_out, dim = len(span.rows), len(c.hom_reps[n])
            exact = rank_in + rank_out == dim and _kills(span, out, into)
            nodes.append(NodeReport(f"H{n}({name})", dim, rank_in, rank_out, exact))
            into, rank_in = out, rank_out
    return ExactnessReport(label, nodes, all(node.exact for node in nodes))


# ---------------------------------------------------------------------------
# Fundamental group of the 2-skeleton via a spanning tree.


@dataclass(frozen=True)
class Presentation:
    """Group presentation: generator symbols plus relator words.

    A word is a tuple of nonzero integers; letter g > 0 stands for
    ``generators[g-1]`` and -g for its inverse.
    """

    generators: tuple
    relators: tuple


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclic_reduce(word):
    w = _free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = _free_reduce(w[1:-1])
    return w


def _invert(word):
    return [-x for x in reversed(word)]


def pi1_presentation(k, basepoint):
    """Edge-path presentation of the fundamental group of ``k``.

    Spanning tree by breadth-first search from the basepoint in canonical
    vertex order; one generator per non-tree edge, one relator per triangle.
    Elementary Tietze moves (drop trivial relators, eliminate generators
    occurring once in some relator) are applied to a fixed point.  Each move
    solves the first relator, in order, that holds a generator occurring
    once, for the smallest such generator, and substitutes it everywhere;
    the work per move is proportional to the relators that contain the
    eliminated generator, and generators are renumbered once at the end.
    """
    if not k.by_dimension:
        raise InputError("fundamental group needs a nonempty complex")
    verts = [s[0] for s in k.by_dimension[0]]
    vset = set(verts)
    if basepoint not in vset:
        raise InputError(f"basepoint {basepoint} is not a vertex of the complex")
    adj = {v: [] for v in verts}
    edges = k.by_dimension[1] if len(k.by_dimension) > 1 else []
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()

    tree = set()
    seen = {basepoint}
    queue = [basepoint]
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    if seen != vset:
        stray = min(vset - seen)
        raise InputError(
            f"complex is disconnected: vertices {basepoint} and {stray} "
            "lie in different components"
        )

    gen_edges = [e for e in edges if e not in tree]
    gen_index = {e: i + 1 for i, e in enumerate(gen_edges)}

    def letter(u, v):
        e = (min(u, v), max(u, v))
        g = gen_index.get(e)
        if g is None:
            return []
        return [g] if (u, v) == e else [-g]

    relators = []
    triangles = k.by_dimension[2] if len(k.by_dimension) > 2 else []
    for a, b, c in triangles:
        word = letter(a, b) + letter(b, c) + _invert(letter(a, c))
        relators.append(_cyclic_reduce(word))

    symbols = [f"g{u}_{v}" for u, v in gen_edges]
    symbols, relators = _tietze_reduce(symbols, relators)
    return Presentation(tuple(symbols), tuple(tuple(w) for w in relators))


def _tietze_reduce(symbols, relators):
    # Generator ids stay fixed until the end, and each relator is indexed by
    # the generators it contains, so a move rewrites only the relators that
    # hold the eliminated generator.  The moves are those of a full rescan
    # from the first relator: a relator scanned without a singleton can only
    # gain one by being rewritten, and then it is queued again.
    words = {}
    holders = {}  # generator -> indices of the relators that contain it
    for ri, word in enumerate(relators):
        word = _cyclic_reduce(word)
        if word:
            words[ri] = word
            for x in word:
                holders.setdefault(abs(x), set()).add(ri)
    queue = list(words)  # ascending, so already a heap
    eliminated = set()
    while queue:
        ri = heapq.heappop(queue)
        word = words.get(ri)
        if word is None:  # dropped since it was queued
            continue
        counts = {}
        for x in word:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        singles = [h for h, c in counts.items() if c == 1]
        if not singles:
            continue
        g = min(singles)
        pos = next(i for i, x in enumerate(word) if abs(x) == g)
        word = word[pos:] + word[:pos]
        if word[0] == g:
            # g . tail == 1, so g = inverse(tail)
            replacement = _invert(word[1:])
        else:
            # inverse(g) . tail == 1, so g = tail
            replacement = word[1:]
        inverse = _invert(replacement)
        del words[ri]
        for h in counts:
            holders[h].discard(ri)
        eliminated.add(g)
        for rj in holders.pop(g):
            old = words[rj]
            new = []
            for x in old:
                if x == g:
                    new.extend(replacement)
                elif x == -g:
                    new.extend(inverse)
                else:
                    new.append(x)
            new = _cyclic_reduce(new)
            for x in old:
                if abs(x) != g:
                    holders[abs(x)].discard(rj)
            if not new:
                del words[rj]
                continue
            words[rj] = new
            for x in new:
                holders[abs(x)].add(rj)
            heapq.heappush(queue, rj)
    kept = [h for h in range(1, len(symbols) + 1) if h not in eliminated]
    renumber = {h: i for i, h in enumerate(kept, start=1)}
    return [symbols[h - 1] for h in kept], [
        [renumber[x] if x > 0 else -renumber[-x] for x in words[ri]]
        for ri in sorted(words)
    ]


def abelianization(pres):
    """Abelianized presentation as free rank plus torsion (via Smith form)."""
    ngen = len(pres.generators)
    rows = []
    for word in pres.relators:
        row = [0] * ngen
        for x in word:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    if not rows or ngen == 0:
        return HomologyGroup(ngen, ())
    d = invariant_factors(IntegerMatrix.from_rows(rows))
    return HomologyGroup(ngen - len(d), tuple(x for x in d if x > 1))
