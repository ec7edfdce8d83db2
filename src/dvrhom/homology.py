"""Simplicial chain complexes and their homology over Z, Q and Z_p.

Simplices are oriented by their sorted vertex tuple, so boundary signs do
not depend on witnesses.  One builder, ``_boundary_builder``, gives the
boundary column ``{face position: +-1}`` of a simplex over the positions of
its level.  A pair (X, A), A a subcomplex or the full subcomplex on a
vertex set, puts each level of X in A-first order (``_a_first``): A's
simplices, then the others, each part lexicographic.
So X/A has the columns and rows past A's, and A in X is a filtration.
All homology, absolute homology being relative to the empty subcomplex,
comes from one top-down reduction, ``_reduce``, over Z (p=0), Q (None) or
Z_p: the column reduction by lowest face of ``matrices`` takes the columns
of each map, less those cleared by the map above, and its lows clear the
map below, through a mask of one byte per column (``_kept``).  Only Z may
leave columns with a non-unit low for a dense Smith form.  A column that
would be stored unreduced, an apparent pair (Bauer 2021), is stored as its
bare simplex and built in place when first read, which leaves every stored
vector and so every report as it was.  The long exact sequence check reads
every rank of the sequence off the lows of one reduction of X over the
field, ``_filtered_ranks``, on the same levels, and dim H_n(X,A) off the
reduction of X/A that ``_reduce`` runs, one ``_reduce_degree`` at a time.
Both run in one top-down pass over the degrees, which builds each degree's
face positions (``_positions``) once for the two.
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from itertools import combinations, compress

from .complexes import SimplicialComplex
from .digraph import InputError
from .matrices import _check_prime, _column_reduce, _diagonalize, invariant_factors


class HomologyGroup(namedtuple("HomologyGroup", "betti torsion", defaults=((),))):
    """Free rank plus ordered torsion coefficients of one degree."""

    __slots__ = ()

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


def _parse_field(spec):
    """None for the rationals, a verified prime below _PRIME_LIMIT for Z_p."""
    if isinstance(spec, str):
        if spec.lower() == "q":
            return None
        raise InputError(f"unknown coefficient field {spec!r}")
    return _check_prime(spec)


def _positions(level):
    """The position of each simplex of ``level``."""
    return dict(zip(level, range(len(level))))


def _boundary_builder(pos, n, cut=0):
    """The builder of the boundary columns of degree n >= 1, over the
    positions ``pos`` of the (n-1)-simplices: an n-simplex maps to ``{face
    position: +-1}``, deleting the i-th vertex with sign (-1)^i, less the
    faces at positions below ``cut`` (A's, for X/A)."""
    face = pos.__getitem__
    signs = ((1, -1), (-1, 1))[n % 2] * (n // 2 + 1)  # (-1)^i for i = n .. 0

    def column(s):
        col = zip(map(face, combinations(s, n)), signs)
        return {i: c for i, c in col if i >= cut} if cut else dict(col)

    return column


def _kept(size, lows):
    """The mask of the columns of a map with ``size`` columns that the
    ``lows`` of the map above leave to reduce: one byte per column, 0 at a
    low, 1 elsewhere, for ``compress``."""
    keep = bytearray(b"\1") * size
    for i in lows:
        keep[i] = 0
    return keep


def _columns(simplices, pos, column, blocked, table):
    """The columns of ``simplices``, in order, built by ``column`` over the
    face positions ``pos`` (``_boundary_builder``), for ``_column_reduce``
    to store into ``table``.  The low of the boundary of s is taken to be
    s[1:] unless its position is below ``blocked``; if no stored column has
    that low, s is an apparent pair, stored there as the bare tuple s, for
    ``_column_reduce`` to build with ``column`` when it first reads it."""
    for s in simplices:
        low = pos[s[1:]]
        if low in table or low < blocked:
            yield column(s)
        else:
            table[low] = s


def _reduce(levels, first, p):
    """Ranks and torsion of the boundary maps of (X, A), top-down.

    ``levels`` are X's simplex lists in A-first order, A having ``first[n]``
    n-simplices (none for absolute homology): X/A has the columns from
    position ``first[n]`` on and the rows from ``first[n - 1]`` on.  Entry n
    of each list is for degree n = 0 .. top + 1, over Z (p=0), Q (None) or
    Z_p.  One degree is held at a time (``_reduce_degree``), and a column is
    built only when read.
    Clearing: the map d of degree n skips the lows L of the column
    reduction of the map B above it.  The reduction moves B's columns
    unimodularly to ones that are unitriangular on the rows L (the stored
    columns) or zero there, so B[L, :] has invariant factors all 1 (over a
    field, full rank), hence an integer right inverse X, and d B = 0 gives
    d[:, L] = -d[:, ~L] B[~L, :] X: d keeps its invariant factors without
    those columns.  Lows of set-aside columns never clear.
    Apparent pairs (Bauer 2021): outside A the order is lexicographic, so
    the low of the boundary of s is s[1:], with entry +1, when A does not
    hold s[1:].  If no stored column has that low, ``_add`` would store the
    column unchanged, so ``_columns`` stores it as its simplex, built in
    place when first read.  Stored vectors, lows, cleared columns and core
    are those of the map built whole, whose ranks and torsion no order moves.
    """
    top = len(levels) - 1
    ranks, torsion = [0] * (top + 2), [()] * (top + 2)
    keep = _kept(len(levels[top]), ()) if levels else None
    for n in range(top, 0, -1):
        pos = _positions(levels[n - 1])
        ranks[n], torsion[n], keep = _reduce_degree(levels, first, n, pos, keep, p)
    return ranks, torsion


def _reduce_degree(levels, first, n, pos, keep, p):
    """Degree n of ``_reduce``, over the positions ``pos`` of level n - 1,
    on the columns that the mask ``keep`` (``_kept``) leaves: the rank and
    the torsion of the map of X/A, and the mask that its lows leave to
    degree n - 1.  The table is dropped on return."""
    table, cut, below = {}, first[n], first[n - 1]
    column = _boundary_builder(pos, n, below)
    simplices = compress(levels[n][cut:], keep[cut:])
    lows, core = _column_reduce(
        _columns(simplices, pos, column, below, table), p, table, column
    )
    keep = _kept(len(pos), lows)
    if not core:
        return len(lows), (), keep
    d = _diagonalize(core)
    return len(lows) + len(d), tuple(x for x in d if x > 1), keep


def _filtered_ranks(levels, first, n, pos, keep, p):
    """Degree n of the reduction of a chain complex filtered in two steps,
    K in L, over a field, over the positions ``pos`` of level n - 1.

    ``levels[n]`` lists L's n-simplices in filtration order: K's
    ``first[n]`` of them, then the others, each part lexicographic.  The
    reduction runs top-down, one call per degree, with ``_reduce``'s
    clearing: it takes the columns that the mask ``keep`` of the call above
    leaves.  It takes K's columns and then the others into one table, so
    its lows are the persistence pairs of K in L (Cohen-Steiner,
    Edelsbrunner, Harer and Morozov, "Persistent homology for kernels,
    images, and cokernels", 2009).  Clearing holds in any order: a column
    whose simplex is the low of a boundary is a combination of the columns
    before it.  Returns the
    rank of K's boundary map of degree n (the table's size after K's
    columns), the rank of L's (its size at the end), the number of its lows
    that are K's (n-1)-simplices, and the mask that its lows leave to degree
    n - 1; the table is dropped.
    The low of the boundary of s is s[1:] unless s[1:] is K's and s is not;
    as in ``_reduce``, s may be stored as its simplex, for either part to build.
    """
    table, level, cut, below = {}, levels[n], first[n], first[n - 1]
    column = _boundary_builder(pos, n)
    own = _columns(compress(level[:cut], keep), pos, column, 0, table)
    rank_k = len(_column_reduce(own, p, table, column)[0])
    rest = _columns(compress(level[cut:], keep[cut:]), pos, column, below, table)
    _column_reduce(rest, p, table, column)
    lows_in_k = sum(low < below for low in table)
    return rank_k, len(table), lows_in_k, _kept(len(pos), table)


def _a_first(k, a):
    """The levels of ``k`` in A-first order: A's simplices, then the others,
    each part lexicographic; and the number of A's in each.

    A is a subcomplex of ``k``, whose simplices, put in a set, tell which
    of ``k``'s are its own, or a collection of vertices of ``k``, which
    stands for the full subcomplex on them: the simplices of ``k`` that
    they hold.  Neither makes a witness of A or ``k``.  A simplex of the
    subcomplex that is not in ``k``, or the first vertex of the collection
    that is not one of ``k``'s, is refused.  The full subcomplex is face
    closed, so past its first level without a simplex it has none, and the
    levels above stay as they are; a subcomplex is walked whole, to find a
    simplex that ``k`` lacks."""
    if isinstance(a, SimplicialComplex):
        of_a = set(a.simplices())
        held, size, full = of_a.__contains__, len(of_a), False
    else:
        a = tuple(a)  # an iterator would be used up by the check
        vertices = set(k.by_dimension[0]) if k.by_dimension else ()
        for v in a:
            if (v,) not in vertices:
                raise InputError(f"subset vertex {v} is not a vertex of the complex")
        held, size, full = frozenset(a).issuperset, 0, True  # its vertices are checked
    levels, first = [], []
    for level in k.by_dimension:
        own, rest = [], []
        for s in level:
            (own if held(s) else rest).append(s)
        levels.append(own + rest)
        first.append(len(own))
        if full and not own:
            break
    first += [0] * (len(k.by_dimension) - len(levels))
    levels += k.by_dimension[len(levels) :]
    if sum(first) < size:
        of_a.difference_update(k.simplices())
        s = next(filter(of_a.__contains__, a.simplices()))
        raise InputError(f"simplex {s} of the subcomplex is not in the complex")
    return levels, first


def _homology_groups(levels, first, p, reduced=False):
    """Homology groups of (X, A) for X's ``levels`` in A-first order, A
    having ``first[n]`` n-simplices (none for absolute homology);
    ``reduced`` adds the augmentation."""
    ranks, torsion = _reduce(levels, first, p)
    if reduced and levels:
        ranks[0] = 1
    return [
        HomologyGroup(len(level) - cut - ranks[n] - ranks[n + 1], torsion[n + 1])
        for n, (level, cut) in enumerate(zip(levels, first))
    ]


def homology_integer(k, reduced=False):
    """Integer homology of the complex: one ``HomologyGroup`` per degree."""
    return _homology_groups(k.by_dimension, [0] * len(k.by_dimension), 0, reduced)


def homology_field(k, field_spec, reduced=False):
    """Betti numbers over Q (field_spec="q") or Z_p (p prime, p < 3.3e24)."""
    p = _parse_field(field_spec)
    groups = _homology_groups(k.by_dimension, [0] * len(k.by_dimension), p, reduced)
    return [g.betti for g in groups]


def relative_homology(k, a):
    """Homology of the quotient chain complex of the pair (k, A).

    A is a subcomplex of ``k``, or a collection of vertices of ``k`` that
    stands for the full subcomplex on them (``_a_first``).  The quotient
    basis in each degree is the simplices of ``k`` outside A; boundary
    entries landing in A are deleted.
    """
    return _homology_groups(*_a_first(k, a), 0)


# ---------------------------------------------------------------------------
# Long exact sequence of a pair, verified over a field.


NodeReport = namedtuple("NodeReport", "name dim rank_in rank_out exact")
ExactnessReport = namedtuple("ExactnessReport", "field nodes exact")


def les_exactness_check(k, a, field_spec):
    """Verify exactness of the homology long exact sequence of (k, A).

    A is a subcomplex of ``k``, or a collection of vertices of ``k`` that
    stands for the full subcomplex on them; the pair is checked before the
    field.  Works over a field (Q or Z_p), so homology is vector spaces.  In
    A-first order (``_a_first``), (k, A) is a filtration, and
    ``_filtered_ranks`` reduces it.  With |A_n| the number of A's
    n-simplices, r_n the rank of a boundary map of degree n and l_n the
    lows of degree n + 1 that are A's:

    - dim H_n(A) = |A_n| - r_n(A) - r_{n+1}(A), and dim H_n(X) alike;
    - H_n(A) -> H_n(X) has rank |A_n| - r_n(A) - l_n;
    - H_{n+1}(X,A) -> H_n(A) has rank l_n - r_{n+1}(A);
    - H_n(X) -> H_n(X,A) has rank dim H_n(X) less that of H_n(A) -> H_n(X).

    So the sequence is exact at each H_n(A) and H_n(X) by construction.
    dim H_n(X,A) comes from the reduction of X/A that ``_reduce`` runs, one
    ``_reduce_degree`` at a time, and the node H_n(X,A) checks that the
    ranks into and out of it add up to it.  Both reductions run in one
    top-down pass over the degrees.  Each degree's face positions are built
    once and serve both, the filtered reduction first, then X/A, and each
    drops its table before the other starts; between degrees each keeps
    only its mask of the columns left to reduce.  Nodes run top-down:
    H_n(A), H_n(X), H_n(X,A).
    """
    levels, first = _a_first(k, a)
    p = _parse_field(field_spec)
    top = len(levels) - 1
    rank_a, rank_x, lows_of_a, relative = ([0] * (top + 2) for _ in range(4))
    keep_x = keep_r = _kept(len(levels[top]), ()) if levels else None
    for n in range(top, 0, -1):
        pos = _positions(levels[n - 1])
        rank_a[n], rank_x[n], lows_of_a[n - 1], keep_x = _filtered_ranks(
            levels, first, n, pos, keep_x, p
        )
        relative[n], _, keep_r = _reduce_degree(levels, first, n, pos, keep_r, p)
    nodes = []
    for n in range(k.dim, -1, -1):
        dim_a = first[n] - rank_a[n] - rank_a[n + 1]
        dim_x = len(levels[n]) - rank_x[n] - rank_x[n + 1]
        dim_r = len(levels[n]) - first[n] - relative[n] - relative[n + 1]
        connect = lows_of_a[n] - rank_a[n + 1]  # from H{n+1}(X,A)
        include = first[n] - rank_a[n] - lows_of_a[n]
        project = dim_x - include
        connect_below = lows_of_a[n - 1] - rank_a[n] if n else 0
        for name, dim, rank_in, rank_out in (
            ("A", dim_a, connect, include),
            ("X", dim_x, include, project),
            ("X,A", dim_r, project, connect_below),
        ):
            exact = rank_in + rank_out == dim
            nodes.append(NodeReport(f"H{n}({name})", dim, rank_in, rank_out, exact))
    label = "q" if p is None else f"zp:{p}"
    return ExactnessReport(label, nodes, all(node.exact for node in nodes))


# ---------------------------------------------------------------------------
# Fundamental group of the 2-skeleton via a spanning tree.


Presentation = namedtuple("Presentation", "generators relators")
Presentation.__doc__ = """Group presentation: generator symbols plus relator words.

A word is a tuple of nonzero integers; letter g > 0 stands for
``generators[g-1]`` and -g for its inverse.
"""


def _cyclic_reduce(word):
    """``word`` freely reduced, then with matching ends trimmed.  What lies
    between two ends that cancel in a freely reduced word is still freely
    reduced, so the ends are trimmed by index, with no second pass."""
    w = []
    for x in word:
        if w and w[-1] == -x:
            w.pop()
        else:
            w.append(x)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i : j + 1]


def _invert(word):
    return [-x for x in reversed(word)]


def pi1_presentation(k, basepoint):
    """Edge-path presentation of the fundamental group of ``k``.

    Spanning tree by breadth-first search from the basepoint in canonical
    vertex order; one generator per non-tree edge, one relator per triangle.
    Simplices are sorted tuples in lexicographic order, so adjacency lists
    come out sorted, and every edge of a triangle a < b < c runs upward: its
    relator is row[a][b] row[b][c] row[a][c]^-1, read from per-vertex rows of
    generator numbers where tree edges are 0, with the zeros dropped.  Its
    letters are distinct generators, so it is cyclically reduced as it
    stands and goes straight to ``_tietze_moves``.  Elementary Tietze moves
    (drop trivial relators, eliminate generators occurring once in some
    relator) are applied to a fixed point.  Each move solves the first
    relator, in order, that holds a generator occurring once, for the
    smallest such generator, and substitutes it everywhere; in a word of
    distinct letters, as a triangle word is until rewritten, that is its
    least |letter|.  A complex capped below dimension 2 lacks relators, and
    is refused.
    """
    if not k.by_dimension:
        raise InputError("fundamental group needs a nonempty complex")
    if k.truncated and k.dim < 2:
        raise InputError(
            "fundamental group needs the 2-skeleton; the complex is capped at"
            f" dimension {k.dim}"
        )
    verts = [s[0] for s in k.by_dimension[0]]
    row = {v: {} for v in verts}  # row[a][b], a < b: generator of edge ab
    if basepoint not in row:
        raise InputError(f"basepoint {basepoint} is not a vertex of the complex")
    adj = {v: [] for v in verts}
    edges = k.by_dimension[1] if len(k.by_dimension) > 1 else []
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    seen = {basepoint}
    queue = [basepoint]
    for u in queue:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                row[min(u, w)][max(u, w)] = 0  # a tree edge
                queue.append(w)
    if len(seen) < len(verts):
        stray = min(row.keys() - seen)
        raise InputError(
            f"complex is disconnected: vertices {basepoint} and {stray} "
            "lie in different components"
        )

    gen_edges = [(a, b) for a, b in edges if b not in row[a]]
    for g, (a, b) in enumerate(gen_edges, start=1):
        row[a][b] = g
    triangles = k.by_dimension[2] if len(k.by_dimension) > 2 else []
    relators = [
        [*filter(None, (row[a][b], row[b][c], -row[a][c]))] for a, b, c in triangles
    ]
    symbols = [f"g{u}_{v}" for u, v in gen_edges]
    symbols, relators = _tietze_moves(symbols, relators)
    return Presentation(tuple(symbols), tuple(tuple(w) for w in relators))


def _tietze_moves(symbols, words):
    # The words are cyclically reduced; the caller's lists are left as they
    # are.  Generator ids stay fixed until the end, and each relator is
    # indexed by the generators it contains, so a move rewrites only the
    # relators that hold the eliminated generator.  The moves are those of a
    # full rescan from the first relator: one scan takes the relators in
    # index order, and a relator taken without a singleton can only gain one
    # by being rewritten.  One rewritten after its turn is taken again,
    # before the scan goes on, from a heap where it waits at most once.  A
    # one-letter relator g^+-1 kills g at the cost of deleting +-g from each
    # holder of g.  Only a word left with two or more letters is reduced
    # again (the rest of the word was reduced), and the other generators'
    # holders change only where that cancelled letters.
    words = list(words)
    holders = [set() for _ in range(len(symbols) + 1)]  # None once eliminated
    for ri, word in enumerate(words):
        for x in word:
            holders[abs(x)].add(ri)
    scan, again, queued = 0, [], set()  # again: a heap; queued: its members
    while again or scan < len(words):
        if again:
            ri = heapq.heappop(again)
            queued.remove(ri)
        else:
            ri, scan = scan, scan + 1
        word = words[ri]
        if not word:  # empty, or emptied while it waited
            continue
        if len(word) == 1:
            g = abs(word[0])
            words[ri] = ()
            hold = holders[g]
            holders[g] = None
            hold.remove(ri)
            for rj in hold:
                old = words[rj]
                if len(old) == 1:  # g^+-1 again
                    words[rj] = ()
                    continue
                rest = [x for x in old if x != g and x != -g]
                new = rest
                if len(rest) > 2:
                    new = _cyclic_reduce(rest)
                elif len(rest) == 2 and rest[0] == -rest[1]:
                    new = []
                if len(new) < len(rest):
                    for h in {abs(x) for x in rest} - {abs(x) for x in new}:
                        holders[h].discard(rj)
                words[rj] = new
                if new and rj < scan and rj not in queued:
                    queued.add(rj)
                    heapq.heappush(again, rj)
            continue
        letters = [*map(abs, word)]
        distinct = singles = set(letters)  # all singletons unless one repeats
        if len(distinct) < len(word):
            singles = [h for h, c in Counter(letters).items() if c == 1]
            if not singles:
                continue
        g = min(singles)
        pos = letters.index(g)
        word = word[pos:] + word[:pos]
        if word[0] == g:
            # g . tail == 1, so g = inverse(tail)
            replacement = _invert(word[1:])
        else:
            # inverse(g) . tail == 1, so g = tail
            replacement = word[1:]
        inverse = _invert(replacement)
        words[ri] = ()
        for h in distinct:
            holders[h].discard(ri)
        hold = holders[g]
        holders[g] = None
        for rj in hold:
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
            words[rj] = new
            for x in new:
                holders[abs(x)].add(rj)
            if new and rj < scan and rj not in queued:
                queued.add(rj)
                heapq.heappush(again, rj)
    kept = [h for h in range(1, len(symbols) + 1) if holders[h] is not None]
    renumber = {h: i for i, h in enumerate(kept, start=1)}
    return [symbols[h - 1] for h in kept], [
        [renumber[x] if x > 0 else -renumber[-x] for x in word]
        for word in words
        if word
    ]


def abelianization(pres):
    """Abelianized presentation as free rank plus torsion (via Smith form).

    A letter outside +-1..len(generators) names no generator, and is refused.
    Each relator gives the column ``{generator: exponent sum}``, the
    transpose of the relation matrix, which has the same invariant factors.
    """
    ngen = len(pres.generators)
    columns = []
    for i, word in enumerate(pres.relators):
        sums = Counter()
        for x in word:
            if not (isinstance(x, int) and 0 < abs(x) <= ngen):
                raise InputError(
                    f"relator {i} {list(word)} has letter {x!r}, outside +-1..{ngen}"
                )
            sums[abs(x) - 1] += 1 if x > 0 else -1
        columns.append({g: e for g, e in sums.items() if e})
    d = invariant_factors(columns)
    return HomologyGroup(ngen - len(d), tuple(x for x in d if x > 1))
