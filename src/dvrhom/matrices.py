"""Exact linear algebra kernels: integer Smith normal form, field elimination.

Everything runs on Python integers and fractions, so there is no overflow
and no floating point anywhere.  Sparse matrices are dicts of columns, each
a ``{row: value}`` dict.  ``invariant_factors`` and the reduction of
boundary maps in ``homology`` share one sparse core, ``_column_reduce``:
the column reduction by lowest row of persistent homology.  Columns are
taken in order; while a column's low, its largest row, is the low of a
stored column, that column is subtracted, and a column whose low is a unit
is stored.  Over Z_p every nonzero low is a unit, so this alone gives the
rank.  Over Z only +-1 lows are stored; its moves are unimodular, so each
stored low is one invariant factor 1, and the lows, faces for a boundary
map, clear the map below.  Columns left with a non-unit low are reduced at
every stored low at the end, and only what is left of them goes through
the dense Smith normal form, which pivots on a minimal absolute value entry
each round to keep coefficient growth tame.  Boundary matrices almost
never leave anything there.  ``smith_normal_form``, which also returns the
transforms, stays dense.  Over Q or Z_p the sparse tagged echelon basis
``_Echelon`` serves ``field_rank`` and the long exact sequence check of
``homology``, which builds its homology coordinates with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

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


def _subtract(col, f, stored, p):
    """``col -= f * stored`` in place, mod p unless p is None; zeros are dropped."""
    for i, x in stored.items():
        y = col.get(i, 0) - f * x
        if p is not None:
            y %= p
        if y:
            col[i] = y
        else:
            del col[i]


def _column_reduce(columns, p=None):
    """Reduce sparse columns by their lowest rows; returns (lows, core).

    ``columns`` maps columns to ``{row: value}`` dicts, nonzero (mod p over
    Z_p), and is used up; they are taken in its order.  A column's low is
    its largest row.  While that is the low of a stored column, the column
    subtracts the stored one times its own entry there.  A column whose low
    is a unit (+-1 over Z, any entry over Z_p, taken mod p) is stored,
    scaled to 1 at its low; ``lows`` lists them in order.  Over Z a column
    left with a non-unit low is set aside, and at the end reduced at every
    row that is a low, largest first.  ``core`` is what is left, one dense
    row per nonzero set-aside column, on the rows that are not lows; a
    later column may have taken its low, so it may hold units.  The moves
    are unimodular column operations, and the stored columns are
    unitriangular on the rows ``lows``, where the core is zero: the
    invariant factors are ``(1,) * len(lows)`` and the core's, the rank
    over any field is ``len(lows)`` plus the core's, and the rows ``lows``
    alone have invariant factors all 1.  Over Z_p the core is empty.
    """
    table, aside = {}, []
    for col in columns.values():
        while col and (low := max(col)) in table:
            _subtract(col, col[low], table[low], p)
        if col:
            v = col[low]
            if v == 1:
                table[low] = col
            elif v == -1:
                table[low] = {i: -x for i, x in col.items()}
            elif p is not None:
                s = pow(v, -1, p)
                table[low] = {i: x * s % p for i, x in col.items()}
            else:
                aside.append(col)
    for col in aside:
        while (low := max((i for i in col if i in table), default=None)) is not None:
            _subtract(col, col[low], table[low], None)
    rows = sorted({i for col in aside for i in col})
    return list(table), [[col.get(i, 0) for i in rows] for col in aside if col]


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
    columns = {j: {} for j in range(a.cols)}
    for (i, j), v in a.entries.items():
        columns[j][i] = v
    lows, core = _column_reduce(columns)
    return (1,) * len(lows) + _dense_factors(core)


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
# Sparse elimination over a field: p=None means rationals, otherwise GF(p).


class _Echelon:
    """Sparse vectors in echelon form over Q (p=None) or Z_p.

    Vectors are ``{index: value}`` dicts.  Each stored vector is scaled to 1
    at its pivot, its largest index, and carries a tag: a second vector to
    which every row operation on it is applied as well, so the tag writes
    the stored vector in terms of whatever its inputs were tagged with.
    """

    def __init__(self, p):
        if p is None:
            # +-1 is its own inverse: pivots of boundaries stay ints, which
            # keeps Fraction arithmetic out of the common case.
            self.norm = lambda x: x
            self.inv = lambda x: x if x in (1, -1) else 1 / Fraction(x)
        else:
            self.norm = lambda x: x % p
            self.inv = lambda x: pow(x, p - 2, p)
        self.rows = {}  # pivot -> (vector, tag)

    def subtract(self, acc, f, vec):
        """``acc -= f * vec`` in place, dropping the entries that vanish.

        ``vec`` holds no zero entries (one missing from ``acc`` would fail).
        """
        norm = self.norm
        for i, x in vec.items():
            if y := norm(acc.get(i, 0) - f * x):
                acc[i] = y
            else:
                del acc[i]

    def reduce(self, vec, tag=()):
        """Residual of ``vec`` against the stored vectors, and its tag.

        Only pivots are cleared, so the residual is zero exactly when
        ``vec`` lies in the span of the stored vectors.
        """
        vec = {i: y for i, x in vec.items() if (y := self.norm(x))}
        tag = dict(tag)
        while vec and (pivot := max(vec)) in self.rows:
            f, (stored, stored_tag) = vec[pivot], self.rows[pivot]
            self.subtract(vec, f, stored)
            self.subtract(tag, f, stored_tag)
        return vec, tag

    def add(self, vec, tag=()):
        """Store ``vec`` unless it reduces to zero; returns ``reduce``'s pair."""
        vec, tag = self.reduce(vec, tag)
        if vec:
            pivot = max(vec)
            norm, s = self.norm, self.inv(vec[pivot])
            self.rows[pivot] = tuple(
                {i: norm(x * s) for i, x in v.items()} for v in (vec, tag)
            )
        return vec, tag


def field_rank(rows, p=None):
    """Rank of dense rows over Q (p=None) or Z_p; Z_p takes integer entries only."""
    echelon = _Echelon(p)
    for i, row in enumerate(rows):
        if p is not None:
            for j, x in enumerate(row):
                if not isinstance(x, Integral):
                    raise InputError(
                        f"entry ({i}, {j}) = {x!r} is not an integer;"
                        f" Z_{p} takes integer entries only"
                    )
        echelon.add(dict(enumerate(row)))
    return len(echelon.rows)
