"""Simplicial chain complexes and their homology over Z, Q and Z_p.

Simplices are oriented by their sorted vertex tuple, independent of the
witness ordering used during construction, so boundary signs are
reproducible.  Integer homology comes out of Smith normal forms of the
boundary matrices; field homology is plain rank counting.  Both start with
the sparse unit-pivot elimination of ``matrices``, which leaves little or
nothing for the dense Smith form or field elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import f_vector
from .digraph import InputError
from .matrices import (
    IntegerMatrix,
    _unit_eliminate,
    field_matmul,
    field_nullspace,
    field_rank,
    field_rref,
    field_solve,
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


def _parse_field(spec):
    """None for the rationals, a verified prime for Z_p."""
    if isinstance(spec, str):
        if spec.lower() == "q":
            return None
        raise InputError(f"unknown coefficient field {spec!r}")
    p = int(spec)
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise InputError(f"{p} is not prime")
    return p


def boundary_matrix(k, n):
    """Matrix of the n-th boundary map, columns indexed by n-simplices.

    Rows follow the canonical order of (n-1)-simplices; the entry for
    deleting the i-th vertex of the sorted support is (-1)^i.  The 0-th
    boundary is the zero map to a rank-0 target; degrees above the top
    dimension give zero matrices of the appropriate shape.
    """
    if n < 0:
        raise InputError("boundary degree must be >= 0")
    fv = f_vector(k)
    cols = fv[n] if n < len(fv) else 0
    rows = fv[n - 1] if 0 < n < len(fv) + 1 else 0
    mat = IntegerMatrix(rows, cols)
    if n == 0 or cols == 0:
        return mat
    for j, simplex in enumerate(k.by_dimension[n]):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            mat.entries[(k.index[face][1], j)] = 1 if i % 2 == 0 else -1
    return mat


def homology_integer(k, reduced=False):
    """Integer homology of the complex: Betti numbers and torsion."""
    fv = f_vector(k)
    if not fv:
        return HomologyResult([], reduced=reduced, truncated=k.truncated)
    top = len(fv) - 1
    factors = [invariant_factors(boundary_matrix(k, n)) for n in range(top + 2)]
    groups = []
    for n in range(top + 1):
        betti = fv[n] - len(factors[n]) - len(factors[n + 1])
        torsion = tuple(d for d in factors[n + 1] if d > 1)
        groups.append(HomologyGroup(betti, torsion))
    if reduced:
        groups[0] = HomologyGroup(groups[0].betti - 1, groups[0].torsion)
    return HomologyResult(groups, reduced=reduced, truncated=k.truncated)


def homology_field(k, field_spec):
    """Betti numbers over Q (field_spec="q") or Z_p (field_spec=p prime)."""
    p = _parse_field(field_spec)
    fv = f_vector(k)
    if not fv:
        return []
    top = len(fv) - 1
    ranks = []
    for n in range(top + 2):
        ones, core = _unit_eliminate(boundary_matrix(k, n))
        ranks.append(ones + field_rank(core, p))
    return [fv[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]


def _require_subcomplex(k, sub):
    for s in sub.simplices():
        if s not in k:
            raise InputError(f"simplex {s} of the subcomplex is not in the complex")


def _relative_bases(k, sub):
    return [
        [s for s in level if s not in sub.index] for level in k.by_dimension
    ]


def _relative_boundary(k, bases, n):
    cols = bases[n] if n < len(bases) else []
    rows = bases[n - 1] if 0 < n <= len(bases) else []
    mat = IntegerMatrix(len(rows), len(cols))
    if n == 0 or not cols:
        return mat
    row_pos = {s: i for i, s in enumerate(rows)}
    for j, simplex in enumerate(cols):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            r = row_pos.get(face)
            if r is not None:
                mat.entries[(r, j)] = 1 if i % 2 == 0 else -1
    return mat


def relative_homology(k, sub):
    """Homology of the quotient chain complex of the pair (k, sub).

    The quotient basis in each degree is the simplices of ``k`` outside
    ``sub``; boundary entries landing in ``sub`` are deleted.
    """
    _require_subcomplex(k, sub)
    fv = f_vector(k)
    if not fv:
        return HomologyResult([], truncated=k.truncated)
    top = len(fv) - 1
    bases = _relative_bases(k, sub)
    factors = [
        invariant_factors(_relative_boundary(k, bases, n)) for n in range(top + 2)
    ]
    groups = []
    for n in range(top + 1):
        betti = len(bases[n]) - len(factors[n]) - len(factors[n + 1])
        torsion = tuple(d for d in factors[n + 1] if d > 1)
        groups.append(HomologyGroup(betti, torsion))
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
    """Chain complex over a field with explicit homology coordinates."""

    def __init__(self, bases, boundaries, p):
        self.bases = bases
        self.p = p
        self.dims = [len(b) for b in bases]
        self.cycle_basis = []
        self.boundary_cols = []
        self.hom_reps = []
        self._solver_matrix = []
        top = len(bases) - 1
        for n in range(top + 1):
            rows = boundaries[n]
            cycles = field_nullspace(rows, self.dims[n], p)
            nxt = boundaries[n + 1] if n + 1 <= top else []
            bcols = self._independent_columns(nxt, self.dims[n])
            reps = []
            span = [list(c) for c in bcols]
            for z in cycles:
                if field_solve(_cols_to_rows(span, self.dims[n]), z, p) is None:
                    span.append(list(z))
                    reps.append(list(z))
            self.cycle_basis.append(cycles)
            self.boundary_cols.append(bcols)
            self.hom_reps.append(reps)
            self._solver_matrix.append(_cols_to_rows(span, self.dims[n]))

    def _independent_columns(self, rows, nrows):
        if not rows or not rows[0]:
            return []
        _, pivots = field_rref(rows, self.p)
        return [[row[j] for row in rows] for j in pivots]

    def hom_dim(self, n):
        if 0 <= n < len(self.dims):
            return len(self.hom_reps[n])
        return 0

    def coords(self, n, chain):
        """Homology coordinates of a cycle given as a chain vector."""
        nb = len(self.boundary_cols[n])
        x = field_solve(self._solver_matrix[n], chain, self.p)
        if x is None:
            raise InputError("vector is not a cycle of the chain complex")
        return x[nb:]


def _cols_to_rows(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


def _dense_boundary_rows(bases, n):
    cols = bases[n] if n < len(bases) else []
    rows = bases[n - 1] if 0 < n <= len(bases) else []
    out = [[0] * len(cols) for _ in range(len(rows))]
    if n == 0 or not cols or not rows:
        return out
    row_pos = {s: i for i, s in enumerate(rows)}
    for j, simplex in enumerate(cols):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            r = row_pos.get(face)
            if r is not None:
                out[r][j] = 1 if i % 2 == 0 else -1
    return out


def _zero_rows(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


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
    top = k.dim

    x_bases = [list(level) for level in k.by_dimension]
    a_bases = [
        [s for s in level if s in sub.index] for level in k.by_dimension
    ]
    r_bases = _relative_bases(k, sub)

    def dense(bases):
        return [_dense_boundary_rows(bases, n) for n in range(top + 2)]

    cx = _FieldComplex(x_bases, dense(x_bases), p)
    ca = _FieldComplex(a_bases, dense(a_bases), p)
    cr = _FieldComplex(r_bases, dense(r_bases), p)

    x_pos = [{s: i for i, s in enumerate(level)} for level in x_bases]
    a_pos = [{s: i for i, s in enumerate(level)} for level in a_bases]
    bd_x = [_dense_boundary_rows(x_bases, n) for n in range(top + 1)]

    def inclusion_map(n):
        cols = []
        for rep in ca.hom_reps[n]:
            vec = [0] * len(x_bases[n])
            for s, c in zip(a_bases[n], rep):
                vec[x_pos[n][s]] = c
            cols.append(cx.coords(n, vec))
        return _cols_to_rows(cols, cx.hom_dim(n))

    def quotient_map(n):
        cols = []
        for rep in cx.hom_reps[n]:
            vec = [rep[x_pos[n][s]] for s in r_bases[n]]
            cols.append(cr.coords(n, vec))
        return _cols_to_rows(cols, cr.hom_dim(n))

    def connecting_map(n):
        # Lift a relative cycle to a chain, take its boundary inside sub.
        cols = []
        for rep in cr.hom_reps[n]:
            lifted = [0] * len(x_bases[n])
            for s, c in zip(r_bases[n], rep):
                lifted[x_pos[n][s]] = c
            rows = bd_x[n]
            image = [sum(r * c for r, c in zip(row, lifted)) for row in rows]
            if p is not None:
                image = [v % p for v in image]
            target = [0] * len(a_bases[n - 1]) if n > 0 else []
            for s, v in zip(x_bases[n - 1] if n > 0 else [], image):
                if s in a_pos[n - 1]:
                    target[a_pos[n - 1][s]] = v
                elif v:
                    raise InputError("relative cycle boundary escaped the subcomplex")
            if n == 0:
                cols.append([])
            else:
                cols.append(ca.coords(n - 1, target))
        height = ca.hom_dim(n - 1) if n > 0 else 0
        return _cols_to_rows(cols, height)

    nodes = []
    maps = []
    names = []
    for n in range(top, -1, -1):
        names.append((f"H{n}(A)", ca.hom_dim(n)))
        maps.append(inclusion_map(n))
        names.append((f"H{n}(X)", cx.hom_dim(n)))
        maps.append(quotient_map(n))
        names.append((f"H{n}(X,A)", cr.hom_dim(n)))
        maps.append(connecting_map(n))

    all_exact = True
    for q, (name, dim_q) in enumerate(names):
        out_m = maps[q]
        in_m = maps[q - 1] if q > 0 else _zero_rows(dim_q, 0)
        rank_in = field_rank(in_m, p) if in_m and in_m[0] else 0
        rank_out = field_rank(out_m, p) if out_m and out_m[0] else 0
        composite_zero = True
        if q > 0 and in_m and in_m[0] and out_m:
            prod = field_matmul(out_m, in_m, p)
            composite_zero = all(not v for row in prod for v in row)
        exact = composite_zero and (rank_in + rank_out == dim_q)
        all_exact = all_exact and exact
        nodes.append(NodeReport(name, dim_q, rank_in, rank_out, exact))
    return ExactnessReport(label, nodes, all_exact)


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
    occurring once in some relator) are applied to a fixed point.
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
    relators = [_cyclic_reduce(w) for w in relators]
    while True:
        relators = [w for w in relators if w]
        target = None
        for ri, word in enumerate(relators):
            counts = {}
            for x in word:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                target = (ri, singles[0])
                break
        if target is None:
            return symbols, relators
        ri, g = target
        word = list(relators[ri])
        pos = next(i for i, x in enumerate(word) if abs(x) == g)
        word = word[pos:] + word[:pos]
        if word[0] == g:
            # g . tail == 1, so g = inverse(tail)
            replacement = _invert(word[1:])
        else:
            # inverse(g) . tail == 1, so g = tail
            replacement = word[1:]
        out = []
        for rj, other in enumerate(relators):
            if rj == ri:
                continue
            new = []
            for x in other:
                if x == g:
                    new.extend(replacement)
                elif x == -g:
                    new.extend(_invert(replacement))
                else:
                    new.append(x)
            out.append(_cyclic_reduce(new))
        # Drop generator g and renumber the ones above it.
        def shift(x):
            s = 1 if x > 0 else -1
            a = abs(x)
            return s * (a - 1) if a > g else x

        relators = [[shift(x) for x in w] for w in out]
        symbols = symbols[: g - 1] + symbols[g:]


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
