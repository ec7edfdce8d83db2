"""Exact linear algebra kernels: integer Smith normal form, field elimination.

Everything runs on Python integers and fractions, so there is no overflow
and no floating point anywhere.  Sparse matrices are dicts of rows, each a
``{col: value}`` dict.  ``invariant_factors`` and the reduction of boundary
maps in ``homology`` start with a sparse elimination of every +-1 pivot,
``_unit_eliminate``, shortest row first; its moves are unimodular, so each
pivot is one invariant factor 1 (one unit of rank over any field), and it
reports its pivot rows, which ``homology`` uses for clearing.  Boundary
matrices almost always reduce to nothing this way.  Only the non-unit core
left over goes through the dense Smith normal form, which pivots on a
minimal absolute value entry each round to keep coefficient growth tame.
``smith_normal_form``, which also returns the transforms, stays dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .digraph import InputError


class IntegerMatrix:
    """Sparse integer matrix: a map (row, col) -> nonzero integer."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise InputError(f"entry ({i}, {j}) out of range")
                if v:
                    self.entries[(i, j)] = int(v)

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise InputError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    m.entries[(i, j)] = int(v)
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.entries[(i, i)] = 1
        return m

    @classmethod
    def diagonal(cls, diag, rows, cols):
        m = cls(rows, cols)
        for i, v in enumerate(diag):
            if v:
                m.entries[(i, i)] = int(v)
        return m

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def to_rows(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    def transpose(self):
        m = IntegerMatrix(self.cols, self.rows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def is_zero(self):
        return not self.entries

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise InputError("matrix shapes do not compose")
        rows_of_other = {}
        for (j, k), v in other.entries.items():
            rows_of_other.setdefault(j, []).append((k, v))
        acc = {}
        for (i, j), a in self.entries.items():
            for k, b in rows_of_other.get(j, ()):
                acc[(i, k)] = acc.get((i, k), 0) + a * b
        out = IntegerMatrix(self.rows, other.cols)
        out.entries = {key: v for key, v in acc.items() if v}
        return out

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization u @ a @ v = diag(d) with d_i | d_{i+1}, d_i > 0."""

    d: tuple
    u: IntegerMatrix
    v: IntegerMatrix

    @property
    def rank(self):
        return len(self.d)


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _diagonalize(a, m, n, track):
    """In-place Smith elimination; returns (diag, u_rows, v_rows)."""
    u = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if track else None
    t = 0
    limit = min(m, n)
    while t < limit:
        # Pivot: minimal absolute value in the remaining block, scanned
        # row-major so ties resolve to the lowest indices.
        best = None
        pi = pj = -1
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or -best < x < best):
                    best = abs(x)
                    pi, pj = i, j
            if best == 1:
                break
        if best is None:
            break
        if pi != t:
            _swap_rows(a, t, pi)
            if track:
                _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            if track:
                _swap_cols(v, t, pj)
        while True:
            # Re-seat the pivot on the smallest entry of its own cross.
            bb = abs(a[t][t])
            bi = bj = t
            for i in range(t + 1, m):
                x = a[i][t]
                if x and abs(x) < bb:
                    bb, bi, bj = abs(x), i, t
            for j in range(t + 1, n):
                x = a[t][j]
                if x and abs(x) < bb:
                    bb, bi, bj = abs(x), t, j
            if bi != t:
                _swap_rows(a, t, bi)
                if track:
                    _swap_rows(u, t, bi)
            elif bj != t:
                _swap_cols(a, t, bj)
                if track:
                    _swap_cols(v, t, bj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // p
                    if q:
                        ai, at = a[i], a[t]
                        for jj in range(n):
                            ai[jj] -= q * at[jj]
                        if track:
                            ui, ut = u[i], u[t]
                            for jj in range(m):
                                ui[jj] -= q * ut[jj]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    q = x // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        if track:
                            for row in v:
                                row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
        # Divisibility sweep: fold a bad row into the pivot row and redo.
        p = a[t][t]
        bad = -1
        for i in range(t + 1, m):
            row = a[i]
            if any(row[j] % p for j in range(t + 1, n)):
                bad = i
                break
        if bad >= 0:
            at, ab = a[t], a[bad]
            for jj in range(n):
                at[jj] += ab[jj]
            if track:
                ut, ub = u[t], u[bad]
                for jj in range(m):
                    ut[jj] += ub[jj]
            continue
        if a[t][t] < 0:
            for jj in range(n):
                a[t][jj] = -a[t][jj]
            if track:
                for jj in range(m):
                    u[t][jj] = -u[t][jj]
        t += 1
    return [a[i][i] for i in range(t)], u, v


def _unit_eliminate(rows):
    """Eliminate the +-1 pivots of sparse rows; returns (pivots, core).

    ``rows`` maps rows to ``{col: nonzero value}`` dicts and is used up.
    Rows are visited shortest first, and again whenever a pivot changes
    them.  A row with +-1 entries pivots on the one whose column is
    shortest (ties to the lowest index): row operations clear that column,
    and the row and column are dropped.  ``pivots`` lists the pivot rows in
    order and ``core`` is the nonzero block left, without +-1 entries, as
    dense rows: the invariant factors are ``(1,) * len(pivots)`` and the
    core's, and the rank over any field is ``len(pivots)`` plus the core's.
    The pivot rows alone have invariant factors all 1 (as changed, they are
    triangular with +-1 on the pivot columns).
    """
    cols = {}  # col -> set of rows with an entry there
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # (length, row) entries; a changed row is pushed again, so an entry with
    # an out-of-date length is skipped.
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    pivots = []
    while heap:
        n, r = heappop(heap)
        prow = rows.get(r)
        if prow is None or len(prow) != n:
            continue
        units = [j for j, x in prow.items() if x == 1 or x == -1]
        if not units:
            continue
        c = min(units, key=lambda j: (len(cols[j]), j))
        v = prow.pop(c)
        pivots.append(r)
        del rows[r]
        pcol = cols.pop(c)
        pcol.discard(r)
        for j in prow:
            cols[j].discard(r)
        for i in pcol:
            row = rows[i]
            f = row.pop(c) * v  # v is its own inverse
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                heappush(heap, (len(row), i))
            else:
                del rows[i]
        for j in prow:
            if not cols[j]:
                del cols[j]
    order = sorted(cols)
    core = [[rows[i].get(j, 0) for j in order] for i in sorted(rows)]
    return pivots, core


def _dense_factors(core):
    """Invariant factors of a dense integer matrix, by ``_diagonalize``."""
    return tuple(_diagonalize(core, len(core), len(core[0]) if core else 0, False)[0])


def smith_normal_form(a):
    """Full Smith normal form of an IntegerMatrix, transforms included."""
    work = a.to_rows()
    d, u, v = _diagonalize(work, a.rows, a.cols, track=True)
    return SmithForm(tuple(d), IntegerMatrix.from_rows(u), IntegerMatrix.from_rows(v))


def invariant_factors(a):
    """Just the diagonal of the Smith form (cheaper: no transforms kept)."""
    rows = {}
    for (i, j), v in a.entries.items():
        rows.setdefault(i, {})[j] = v
    pivots, core = _unit_eliminate(rows)
    return (1,) * len(pivots) + _dense_factors(core)


def integer_rank(a):
    return len(invariant_factors(a))


def determinant(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise InputError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    _swap_rows(m, k, i)
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Dense elimination over a field: p=None means rationals, otherwise GF(p).


def _to_field(rows, p):
    if p is None:
        return [[Fraction(x) for x in row] for row in rows]
    return [[int(x) % p for x in row] for row in rows]


def _inv(x, p):
    return 1 / x if p is None else pow(x, p - 2, p)


def field_rref(rows, p=None):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = _to_field(rows, p)
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = _inv(a[r][c], p)
        a[r] = [x * inv % p if p else x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                if p:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
                else:
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def field_rank(rows, p=None):
    return len(field_rref(rows, p)[1])


def field_matmul(a, b, p=None):
    if not a or not b:
        return []
    n = len(b[0])
    out = []
    for row in a:
        acc = [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        out.append([v % p for v in acc] if p else [Fraction(v) for v in acc])
    return out
