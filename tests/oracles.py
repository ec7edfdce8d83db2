"""Independent oracles for the test suite.

Everything here recomputes answers by a different route than the package:
exhaustive enumeration, Bron-Kerbosch, Bareiss elimination.  Keeping these
independent is the point; do not import algorithmic code from dvrhom beyond
plain data accessors.
"""

from fractions import Fraction
from itertools import combinations, permutations


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
