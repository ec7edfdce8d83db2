"""Simplicial chain complexes and their homology over Z, Q and Z_p.

Simplices are oriented by their sorted vertex tuple, so boundary signs do
not depend on witnesses.  One builder, ``_boundary_builder``, gives the
boundary column ``{face position: +-1}`` of a simplex over the positions of
``k.by_dimension``.  A pair (X, A) keeps X's positions: X/A has the columns
of the simplices outside A, less A's faces, so X, A and X/A share one index.
All homology, absolute homology being relative to the empty subcomplex,
comes from one top-down reduction, ``_reduce``, over Z (p=0), Q (None) or
Z_p: the column reduction by lowest face of ``matrices`` takes the columns
of each map, less those cleared by the map above, and its lows clear the
map below.  Only Z may leave columns with a non-unit low for a dense Smith
form.  A column that would be stored unreduced, an apparent pair (Bauer
2021), is stored unbuilt until it is read, which leaves every stored vector
and so every report as it was.  The long exact sequence check runs the
same core over the field, in one top-down pass: it builds X's columns of a
degree once and hands them to X, A and X/A, on chains keyed by X's
positions, whose tags pick the homology representatives, write cycles in
terms of them and give the ranks of the three induced maps.  Each node is
checked as soon as the degree its map lands in is reduced, so each complex
holds two degrees' tables, never one per degree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .digraph import InputError
from .matrices import (
    IntegerMatrix,
    _add,
    _column_reduce,
    _dense_factors,
    _low,
    _normal,
    _rank,
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


def _boundary_builder(levels, n, below=()):
    """The position of each (n-1)-simplex, and the builder of the boundary
    columns of degree n >= 1: an n-simplex maps to ``{face position: +-1}``,
    deleting the i-th vertex with sign (-1)^i, less the faces ``below``
    (A's, for X/A)."""
    pos = {s: i for i, s in enumerate(levels[n - 1])}
    face = pos.__getitem__
    signs = [(-1) ** i for i in range(n, -1, -1)]  # last vertex deleted first

    def column(s):
        col = zip(map(face, combinations(s, n)), signs)
        return {i: c for i, c in col if i not in below} if below else dict(col)

    return pos, column


def boundary_matrix(k, n):
    """Matrix of the n-th boundary map, columns indexed by n-simplices.

    Rows follow the canonical order of (n-1)-simplices; the entry for
    deleting the i-th vertex of the sorted support is (-1)^i.  The 0-th
    boundary is the zero map to a rank-0 target; degrees above the top
    dimension give zero matrices of the appropriate shape.
    """
    if n < 0:
        raise InputError("boundary degree must be >= 0")
    levels = k.by_dimension
    size = len(levels[n]) if n < len(levels) else 0
    mat = IntegerMatrix(len(levels[n - 1]) if 0 < n <= len(levels) else 0, size)
    if n and size:
        column = _boundary_builder(levels, n)[1]
        mat.entries = {
            (i, j): v for j, s in enumerate(levels[n]) for i, v in column(s).items()
        }
    return mat


class _Boundary:
    """The column of ``simplex``, built by ``column`` when it is first read:
    the reduction reads a stored vector only by ``items()``."""

    __slots__ = ("simplex", "column", "built")

    def __init__(self, simplex, column):
        self.simplex, self.column, self.built = simplex, column, None

    def items(self):
        if self.built is None:
            self.built = self.column(self.simplex)
        return self.built.items()


def _columns(levels, n, skip, below, table):
    """The columns of degree n outside ``skip``, less A's faces ``below``,
    for ``_column_reduce`` to store into ``table``; an apparent pair is
    stored there unbuilt."""
    pos, column = _boundary_builder(levels, n, below)
    for j, s in enumerate(levels[n]):
        if j not in skip:
            low = pos[s[1:]]
            if low in table or low in below:
                yield column(s)
            else:
                table[low] = _Boundary(s, column), None


def _reduce(levels, in_a, p):
    """Ranks and torsion of the boundary maps of (X, A), top-down.

    ``levels`` are X's simplex lists and ``in_a`` the positions of A's
    simplices in each (all empty for absolute homology).  Entry n of each
    list is for degree n = 0 .. top + 1, over Z (p=0), Q (None) or Z_p.
    One degree is held at a time, and a column is built only when read.
    Clearing: the map d of degree n skips the lows L of the column
    reduction of the map B above it.  The reduction moves B's columns
    unimodularly to ones that are unitriangular on the rows L (the stored
    columns) or zero there, so B[L, :] has invariant factors all 1 (over a
    field, full rank), hence an integer right inverse X, and d B = 0 gives
    d[:, L] = -d[:, ~L] B[~L, :] X: d keeps its invariant factors without
    those columns.  Lows of set-aside columns never clear.
    Apparent pairs (Bauer 2021): positions are lexicographic, so the low of
    the boundary of s is s[1:], with entry +1.  If no stored column has that
    low and A does not hold it, ``_add`` would store the column unchanged,
    so ``_columns`` stores it unbuilt, a ``_Boundary``, which is built when
    a later column reads it.  Stored vectors, lows, cleared columns and the
    core are those of the map built whole; so are the ranks and torsion.
    """
    top = len(levels) - 1
    ranks, torsion = [0] * (top + 2), [()] * (top + 2)
    cleared = set()
    for n in range(top, 0, -1):
        table = {}
        columns = _columns(levels, n, cleared | in_a[n], in_a[n - 1], table)
        lows, core = _column_reduce(columns, p, table)
        cleared = set(lows)
        d = _dense_factors(core)
        ranks[n] = len(lows) + len(d)
        torsion[n] = tuple(x for x in d if x > 1)
    return ranks, torsion


def _positions_of(sub, k):
    """The positions of the simplices of ``sub`` in each level of ``k``."""
    for s in sub.simplices():
        if s not in k.witness:
            raise InputError(f"simplex {s} of the subcomplex is not in the complex")
    return [{j for j, s in enumerate(lv) if s in sub.witness} for lv in k.by_dimension]


def _homology_groups(k, in_a, p, reduced=False):
    """Homology groups of (k, A), for the positions ``in_a`` of A in ``k``
    (none for absolute homology); ``reduced`` adds the augmentation."""
    levels = k.by_dimension
    ranks, torsion = _reduce(levels, in_a, p)
    if reduced and levels:
        ranks[0] = 1
    sizes = [len(level) - len(keep) for level, keep in zip(levels, in_a)]
    return [
        HomologyGroup(size - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n, size in enumerate(sizes)
    ]


def homology_integer(k, reduced=False):
    """Integer homology of the complex: Betti numbers and torsion."""
    groups = _homology_groups(k, [set()] * (k.dim + 1), 0, reduced)
    return HomologyResult(groups, reduced=reduced, truncated=k.truncated)


def homology_field(k, field_spec, reduced=False):
    """Betti numbers over Q (field_spec="q") or Z_p (p prime, p < 3.3e24)."""
    p = _parse_field(field_spec)
    groups = _homology_groups(k, [set()] * (k.dim + 1), p, reduced)
    return [g.betti for g in groups]


def relative_homology(k, sub):
    """Homology of the quotient chain complex of the pair (k, sub).

    The quotient basis in each degree is the simplices of ``k`` outside
    ``sub``; boundary entries landing in ``sub`` are deleted.
    """
    groups = _homology_groups(k, _positions_of(sub, k), 0)
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


class _FieldComplex:
    """Chain complex over a field with explicit homology coordinates, fed
    one degree at a time, top-down; it holds two tables of ``matrices._add``.

    ``reduce(columns)`` takes the columns of the next degree n on X's
    positions.  Copies of them go into a new table ``below``, for degree
    n - 1, tagged with their positions; one that reduces to zero leaves a
    cycle.  Clearing skips the lows of the boundaries of degree n + 1: their
    cycles lie in a boundary plus the earlier cycles.  The cycles then go
    into the table of degree n, which holds those boundaries untagged (they
    are zero in homology) and becomes ``span``; a cycle that is stored is a
    representative in ``reps``, tagged with its index, so every tag gives
    its vector's class in terms of the representatives.
    """

    def __init__(self, p):
        self.p, self.span, self.below, self.reps = p, {}, {}, []

    def reduce(self, columns):
        """Take the ``(position, column)`` pairs of the degree below ``span``."""
        p, span, below = self.p, self.below, {}
        cycles = []
        for j, col in columns:
            if j not in span:
                vec, chain = dict(col), {j: 1}
                _add(vec, below, p, chain)
                if not vec:
                    cycles.append(chain)
        for i, (vec, _) in below.items():
            below[i] = vec, {}
        reps = []
        for z in cycles:
            if _add(dict(z), span, p, {len(reps): 1}):
                reps.append(z)
        self.span, self.below, self.reps = span, below, reps

    def coords(self, chain):
        """Class of a cycle of the degree of ``span``, as
        ``{representative index: coefficient}``.

        A chain that is no cycle, or that leaves the basis, is refused.
        """
        vec, tag = _normal(chain, self.p), {}
        _low(vec, self.span, self.p, tag)
        if vec:
            raise InputError("chain is not a cycle of the chain complex")
        # chain is a combination of stored vectors, each equal in homology
        # to its tag; the reduction subtracted that combination from the tag.
        return _normal({h: -c for h, c in tag.items()}, self.p)


def _apply(columns, chain):
    """The image of ``chain`` under the map with these columns, zeros kept."""
    image = {}
    for j, c in chain.items():
        for i, v in columns[j].items():
            image[i] = image.get(i, 0) + c * v
    return image


def _kills(p, out, into):
    """Whether the classes ``out`` send each class of ``into`` to 0 over the
    field.  Class ``h`` of ``out`` is the image of representative ``h``."""
    return not any(_normal(_apply(out, col), p) for col in into)


def les_exactness_check(k, sub, field_spec):
    """Verify exactness of the homology long exact sequence of (k, sub).

    Works over a field (Q or Z_p) so homology is vector spaces; computes the
    three families of groups, the induced maps between them, and checks
    image = kernel at every node.  Expected to pass for every valid pair.
    """
    p = _parse_field(field_spec)
    levels, in_a = k.by_dimension, _positions_of(sub, k)
    cx, ca, cr = (_FieldComplex(p) for _ in range(3))
    # Top-down, X's columns of each degree are built once.  A takes those of
    # its simplices (their faces are in A), X/A the others less A's faces
    # (shared when they have none).  Each node's map to the next is induced
    # by a chain map that lowers the degree by 0 or 1: the inclusion of A,
    # dropping the simplices of A, and the boundary in X of a relative
    # cycle, which lies in A (ca.coords refuses it otherwise).  So once
    # degree n is reduced, H{n+1}(X,A), H{n}(A) and H{n}(X) are checked;
    # H0(X,A) maps to 0.
    nodes, into, rank_in = [], [], 0  # the map into the next node, and its rank
    relative = []  # H{n+1}(X,A), with the boundaries in X of its representatives
    for n in range(k.dim, -1, -1):
        column = _boundary_builder(levels, n)[1] if n else lambda s: {}
        x = list(map(column, levels[n]))
        keep, below = in_a[n], in_a[n - 1] if n else set()
        cx.reduce(enumerate(x))
        ca.reduce((j, c) for j, c in enumerate(x) if j in keep)
        cr.reduce(
            (j, c if below.isdisjoint(c) else {
                i: v for i, v in c.items() if i not in below
            })
            for j, c in enumerate(x) if j not in keep
        )
        dropped = [{j: c for j, c in z.items() if j not in keep} for z in cx.reps]
        for name, target, chains in (
            *relative, (f"H{n}(A)", cx, ca.reps), (f"H{n}(X)", cr, dropped)
        ):
            # The classes of the images of the representatives.
            out = [target.coords(z) for z in chains]
            rank_out, dim = _rank(map(dict, out), p), len(chains)
            exact = rank_in + rank_out == dim and _kills(p, out, into)
            nodes.append(NodeReport(name, dim, rank_in, rank_out, exact))
            into, rank_in = out, rank_out
        relative = [(f"H{n}(X,A)", ca, [_apply(x, z) for z in cr.reps])]
    if levels:
        dim = len(cr.reps)
        nodes.append(NodeReport("H0(X,A)", dim, rank_in, 0, rank_in == dim))
    label = "q" if p is None else f"zp:{p}"
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
    A complex capped below dimension 2 lacks relators, and is refused.
    """
    if not k.by_dimension:
        raise InputError("fundamental group needs a nonempty complex")
    if k.truncated and k.dim < 2:
        raise InputError(
            "fundamental group needs the 2-skeleton; the complex is capped at"
            f" dimension {k.dim}"
        )
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
