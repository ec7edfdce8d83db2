"""Independent oracles for the test suite.

Everything here recomputes answers by a different route than the package:
exhaustive enumeration, Bron-Kerbosch, Bareiss elimination.  Keeping these
independent is the point; do not import algorithmic code from dvrhom beyond
plain data accessors.  The homology oracles are the one exception: they
reduce every full boundary map on its own with the package's per-matrix
kernels, so they check the top-down clearing and not the kernels.
"""

from fractions import Fraction
from itertools import combinations, permutations

from dvrhom import InputError


def brute_force_dvr(g, max_dim=None):
    """All simplices of the directed clique complex, by exhaustive search.

    Tries every nonempty vertex subset and every permutation of it.
    """
    found = set()
    top = g.n if max_dim is None else min(g.n, max_dim + 1)
    for size in range(1, top + 1):
        for subset in combinations(range(g.n), size):
            for order in permutations(subset):
                if all(
                    g.has_edge(order[i], order[j])
                    for i in range(size)
                    for j in range(i + 1, size)
                ):
                    found.add(subset)
                    break
    return found


def brute_force_witness(g, s):
    """First valid ordering of the vertex set ``s`` in lexicographic order.

    Tries every permutation of the sorted set; None when none is valid.
    """
    for order in permutations(sorted(set(s))):
        if all(
            g.has_edge(order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
        ):
            return order
    return None


def _greedy_peel(ins, mask):
    """Lexicographically least witness of the vertex set ``mask``, or None.

    ``ins[v]`` is the in-mask of v.  Repeatedly peels off the smallest member
    with an edge to every other remaining member, recomputed from scratch at
    every step.
    """
    order = []
    while mask:
        common = rest = mask
        while rest:
            low = rest & -rest
            common &= ins[low.bit_length() - 1]
            rest ^= low
        if not common:
            return None
        low = common & -common
        order.append(low.bit_length() - 1)
        mask ^= low
    return tuple(order)


def greedy_complex_oracle(g, max_dim=None):
    """(by_dimension, witness, truncated) of the directed clique complex.

    Level by level: every sigma+{w} with w above max(sigma) and
    semicomplete-adjacent to all of sigma is confirmed by a fresh greedy
    peel of the whole set.  With a cap, one more level is probed for any
    simplex to set ``truncated``.
    """
    ins = [g.in_mask(v) for v in range(g.n)]
    sym = [g.sym_mask(v) for v in range(g.n)]
    levels = [[(v,) for v in range(g.n)]] if g.n else []
    witness = {(v,): (v,) for v in range(g.n)}

    def next_level(prev, record):
        nxt = []
        for sigma in prev:
            mask = sum(1 << v for v in sigma)
            cand = ((1 << g.n) - 1) >> (sigma[-1] + 1) << (sigma[-1] + 1)
            for v in sigma:
                cand &= sym[v]
            for w in range(sigma[-1] + 1, g.n):
                if cand >> w & 1:
                    order = _greedy_peel(ins, mask | 1 << w)
                    if order is not None:
                        nxt.append(sigma + (w,))
                        record[sigma + (w,)] = order
        return nxt

    while levels and (max_dim is None or len(levels) <= max_dim):
        nxt = next_level(levels[-1], witness)
        if not nxt:
            break
        levels.append(nxt)
    truncated = bool(
        max_dim is not None
        and len(levels) == max_dim + 1
        and next_level(levels[-1], {})
    )
    return levels, witness, truncated


def closure_oracle(faces, witnesses=None):
    """Face closure of arbitrary vertex sets, as (levels, witness map).

    Closes every face over all of its 2^k nonempty subsets and sorts the
    result once by (size, tuple); witnesses default to the sorted tuple.
    Raises the same ``InputError`` messages as
    ``SimplicialComplex.from_simplices``.
    """
    closed = set()
    for f in faces:
        f = tuple(sorted(set(f)))
        if not f:
            raise InputError("simplices must be nonempty")
        for k in range(1, len(f) + 1):
            closed.update(combinations(f, k))
    levels = []
    for s in sorted(closed, key=lambda t: (len(t), t)):
        while len(levels) < len(s):
            levels.append([])
        levels[len(s) - 1].append(s)
    witness = {s: s for s in closed}
    for s, w in (witnesses or {}).items():
        s = tuple(s)
        if s not in witness:
            raise InputError(f"witness given for missing simplex {s}")
        if tuple(sorted(w)) != s:
            raise InputError(f"witness {w} is not an ordering of {s}")
        witness[s] = tuple(w)
    return levels, witness


def bron_kerbosch_cliques(g):
    """Maximal cliques of a symmetric digraph (loops ignored), with pivoting."""
    neighbors = {
        v: {w for w in range(g.n) if w != v and g.has_edge(v, w)}
        for v in range(g.n)
    }
    cliques = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda u: len(neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            expand(clique | {v}, candidates & neighbors[v], excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(g.n)), set())
    return cliques


def clique_complex_faces(g):
    """All faces of all maximal cliques of a symmetric digraph."""
    faces = set()
    for clique in bron_kerbosch_cliques(g):
        members = sorted(clique)
        for size in range(1, len(members) + 1):
            faces.update(combinations(members, size))
    return faces


def dense_rref(rows, p=None):
    """Reduced row echelon form over Q (p=None) or Z_p, and its pivot columns."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    a = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col] if p is None else pow(a[r][col], p - 2, p)
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def rational_rank(rows):
    """Matrix rank by straightforward fraction elimination."""
    return len(dense_rref(rows)[1])


def field_nullspace(rows, ncols, p=None):
    """Basis of the right nullspace, one vector per free column."""
    rref, pivots = dense_rref(rows, p)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[j] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][j] if p is None else -rref[r][j] % p
        basis.append(vec)
    return basis


def field_solve(rows, rhs, p=None):
    """One solution of A x = b over the field, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    rref, pivots = dense_rref([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if n in pivots:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = rref[r][n]
    return x


def dense_matmul(a, b, p=None):
    """The product of dense matrices over Q (p=None) or Z_p."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    ncols = len(b[0]) if b else 0
    return [
        [norm(sum(x * row[k] for x, row in zip(arow, b))) for k in range(ncols)]
        for arow in a
    ]


def dense_boundary(bases, n):
    """The n-th boundary map over per-degree simplex bases, as dense rows.

    Rows are ``bases[n - 1]`` and columns ``bases[n]``; faces missing from
    ``bases[n - 1]`` are dropped, which gives the quotient complex of a pair
    when the bases leave out the subcomplex.
    """
    faces = bases[n - 1] if 0 < n <= len(bases) else []
    simplices = bases[n] if n < len(bases) else []
    pos = {s: i for i, s in enumerate(faces)}
    rows = [[0] * len(simplices) for _ in faces]
    for j, s in enumerate(simplices):
        for i in range(len(s)):
            r = pos.get(s[:i] + s[i + 1 :])
            if r is not None:
                rows[r][j] = (-1) ** i
    return rows


def integer_homology_oracle(bases):
    """(Betti number, torsion) per degree, without clearing.

    Every full boundary map goes to ``invariant_factors`` on its own.
    """
    from dvrhom.matrices import IntegerMatrix, invariant_factors

    factors = [
        invariant_factors(IntegerMatrix.from_rows(dense_boundary(bases, n)))
        for n in range(len(bases) + 1)
    ]
    return [
        (len(basis) - len(factors[n]) - len(factors[n + 1]),
         tuple(d for d in factors[n + 1] if d > 1))
        for n, basis in enumerate(bases)
    ]


def field_betti_oracle(bases, p=None):
    """Betti numbers over Q (p=None) or Z_p, without clearing.

    Every full boundary map goes to ``dense_rref`` on its own.
    """
    ranks = [
        len(dense_rref(dense_boundary(bases, n), p)[1]) for n in range(len(bases) + 1)
    ]
    return [len(basis) - ranks[n] - ranks[n + 1] for n, basis in enumerate(bases)]


def field_complex_oracle(bases, p=None):
    """Homology representatives per degree over Q (p=None) or Z_p, bottom-up.

    No clearing: in each degree n the package's ``_Echelon`` takes every
    column of the full boundary map of degree n + 1, keyed by positions in
    the bases and tagged with its column, and each column that reduces to
    zero leaves a cycle of degree n + 1.  With the tags dropped, the same
    basis then takes the cycles of degree n in order; a cycle it stores is a
    representative.  Representatives are ``{position: coefficient}`` dicts.
    """
    from dvrhom.matrices import _Echelon

    hom_reps = []
    cycles = [{j: 1} for j in range(len(bases[0]))] if bases else []
    for n in range(len(bases)):
        span, next_cycles = _Echelon(p), []
        rows = dense_boundary(bases, n + 1)
        for j in range(len(bases[n + 1]) if n + 1 < len(bases) else 0):
            col = {i: row[j] for i, row in enumerate(rows) if row[j]}
            vec, chain = span.add(col, {j: 1})
            if not vec:
                next_cycles.append(chain)
        span.rows = {i: (vec, {}) for i, (vec, _) in span.rows.items()}
        reps = []
        for z in cycles:
            if span.add(z, {len(reps): 1})[0]:
                reps.append(z)
        hom_reps.append(reps)
        cycles = next_cycles
    return hom_reps


def find_isomorphism(g, h):
    """A vertex bijection carrying edges exactly, or None (brute force)."""
    if g.n != h.n:
        return None
    g_edges = {(u, v) for u, v in g.edges(include_loops=True)}
    h_edges = {(u, v) for u, v in h.edges(include_loops=True)}
    if len(g_edges) != len(h_edges):
        return None
    g_deg = sorted((len(g.out_set(v)), len(g.in_set(v))) for v in range(g.n))
    h_deg = sorted((len(h.out_set(v)), len(h.in_set(v))) for v in range(h.n))
    if g_deg != h_deg:
        return None
    for perm in permutations(range(g.n)):
        if all((perm[u], perm[v]) in h_edges for u, v in g_edges) and len(
            g_edges
        ) == len(h_edges):
            if {(perm[u], perm[v]) for u, v in g_edges} == h_edges:
                return perm
    return None


def interior_by_neighborhoods(g, a):
    """Interior of a vertex set: the vertices whose in-set lies inside it."""
    aset = set(a)
    return tuple(v for v in range(g.n) if set(g.in_set(v)) <= aset)


def euler_characteristic(fv):
    return sum((-1) ** n * c for n, c in enumerate(fv))


def brute_force_certificate(k, g):
    """Continuity certificate of ``k`` over ``g``, walking every subset.

    For each simplex in order and each nonempty subset tau of it (by size,
    then lexicographically), every member of tau needs an edge to the member
    last in the witness.  Returns the same ``CertificateReport`` as the
    package: the first failing subset ends the walk.
    """
    from dvrhom.fxmap import CertificateReport

    checks = 0
    count = 0
    for s in k.simplices():
        count += 1
        pos = {v: i for i, v in enumerate(k.witness[s])}
        for size in range(1, len(s) + 1):
            for tau in combinations(s, size):
                checks += 1
                target = max(tau, key=pos.__getitem__)
                for v in tau:
                    if not g.has_edge(v, target):
                        return CertificateReport(
                            False, count, checks, (s, tau, v, target)
                        )
    return CertificateReport(True, count, checks, None)


def _free_cancel(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclic_cancel(word):
    w = _free_cancel(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = _free_cancel(w[1:-1])
    return w


def tietze_oracle(symbols, relators):
    """Tietze elimination by rescanning and rewriting every relator per move.

    Each pass drops empty relators, takes the first relator holding a
    generator that occurs once in it, solves it for the smallest such
    generator, substitutes that into every other relator (cyclically
    reduced) and renumbers the generators above it.
    """
    relators = [_cyclic_cancel(w) for w in relators]
    symbols = list(symbols)
    while True:
        relators = [w for w in relators if w]
        target = None
        for ri, word in enumerate(relators):
            counts = {}
            for x in word:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            singles = sorted(h for h, c in counts.items() if c == 1)
            if singles:
                target = (ri, singles[0])
                break
        if target is None:
            return symbols, relators
        ri, g = target
        word = list(relators[ri])
        pos = next(i for i, x in enumerate(word) if abs(x) == g)
        word = word[pos:] + word[:pos]
        tail = word[1:]
        if word[0] == g:
            replacement = [-x for x in reversed(tail)]
        else:
            replacement = tail
        inverse = [-x for x in reversed(replacement)]
        out = []
        for rj, other in enumerate(relators):
            if rj == ri:
                continue
            new = []
            for x in other:
                if x == g:
                    new.extend(replacement)
                elif x == -g:
                    new.extend(inverse)
                else:
                    new.append(x)
            out.append(_cyclic_cancel(new))
        relators = [
            [x - 1 if x > g else x + 1 if x < -g else x for x in w] for w in out
        ]
        symbols = symbols[: g - 1] + symbols[g:]
