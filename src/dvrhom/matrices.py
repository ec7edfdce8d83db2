"""Exact linear algebra kernels: integer Smith normal form, field elimination.

Everything runs on Python integers and fractions, so there is no overflow
and no floating point anywhere.  The ring is named by ``p``: 0 for Z, None
for Q and a prime for Z_p.  Sparse vectors are ``{index: value}`` dicts.
One sparse core serves every ring: ``_add`` reduces a vector at its low,
its largest index, by ``_low`` (the column reduction by lowest row of
persistent homology) and stores it, scaled to 1 at its low, when that
low is a unit; a tag may ride along and take the same row operations
(the chain-level oracles of the tests read homology coordinates off it).
Over Q and Z_p every nonzero low is a unit, so the stored vectors give
the rank (``field_rank``, and the field reductions of ``homology``).  Over
Z only +-1 lows are stored; ``_column_reduce``, which serves
``invariant_factors`` and the reduction of boundary maps in ``homology``,
sets the other columns aside and reduces them at every stored low at the
end, and only what is left of them goes through the dense Smith normal
form, which pivots on a minimal absolute value entry each round to keep
coefficient growth tame.  Boundary matrices almost never leave anything
there.  No command needs the transforms of the Smith form, so none are
kept.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from numbers import Integral, Rational

from .digraph import InputError


def _check_integer(i, j, x, ring):
    """Refuse the entry ``x`` at (i, j) unless it is an integer."""
    if not isinstance(x, Integral):
        raise InputError(
            f"entry ({i}, {j}) = {x!r} is not an integer;"
            f" {ring} takes integer entries only"
        )


def _rational(i, j, x):
    """The entry ``x`` at (i, j) as an exact rational: a finite float is the
    binary fraction it holds, and anything else that is not rational is
    refused."""
    if isinstance(x, float) and isfinite(x):
        return Fraction(x)
    if not isinstance(x, Rational):
        raise InputError(
            f"entry ({i}, {j}) = {x!r} is not rational;"
            " Q takes rational and finite float entries only"
        )
    return x


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
                _check_integer(i, j, v, "IntegerMatrix")
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
                _check_integer(i, j, v, "IntegerMatrix")
                if v:
                    m.entries[(i, j)] = int(v)
        return m

    @classmethod
    def diagonal(cls, diag, rows, cols):
        return cls(rows, cols, {(i, i): v for i, v in enumerate(diag)})

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def to_rows(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    def is_zero(self):
        return not self.entries

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


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _diagonalize(a):
    """In-place Smith elimination of the dense rows ``a``, all of one
    length; returns the diagonal, the invariant factors, as a tuple."""
    m, n = len(a), len(a[0]) if a else 0
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
        if pj != t:
            _swap_cols(a, t, pj)
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
            elif bj != t:
                _swap_cols(a, t, bj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    q = x // p
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    q = x // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
        # Divisibility sweep: fold a bad row into the pivot row and redo.
        p = a[t][t]
        for i in range(t + 1, m):
            row = a[i]
            if any(row[j] % p for j in range(t + 1, n)):
                a[t] = [y + z for y, z in zip(a[t], row)]
                break
        else:
            if p < 0:
                a[t] = [-y for y in a[t]]
            t += 1
    return tuple(a[i][i] for i in range(t))


def _subtract(col, f, stored, p):
    """``col -= f * stored`` in place, mod p for a prime p; zeros are dropped."""
    for i, x in stored.items():
        y = col.get(i, 0) - f * x
        if p:
            y %= p
        if y:
            col[i] = y
        else:
            del col[i]


def _normal(vec, p):
    """The nonzero entries of ``vec``, taken mod p for a prime p."""
    if p:
        return {i: y for i, x in vec.items() if (y := x % p)}
    return {i: x for i, x in vec.items() if x}


def _low(col, table, p, tag=None):
    """Reduce ``col`` in place at its low, its largest index, while a
    stored vector has that low; returns the low left, None for zero.

    ``table`` maps lows to stored ``(vector, tag)`` pairs, each vector 1 at
    its low.  ``col`` subtracts the one at its low times its own entry
    there, and ``tag``, if given, the stored tag times the same.  ``col``
    holds no entry that is 0 (mod p).
    """
    while col:
        low = max(col)
        stored = table.get(low)
        if stored is None:
            return low
        f = col[low]
        _subtract(col, f, stored[0], p)
        if tag is not None:
            _subtract(tag, f, stored[1], p)
    return None


def _add(col, table, p, tag=None):
    """Reduce ``col`` and ``tag`` by ``_low``, and store the residual if its
    low is a unit: +-1 over Z (p=0), any entry over Q (None) or Z_p.  It is
    stored scaled to 1 at its low, with its tag scaled alike, so the tag
    writes the stored vector in terms of whatever the inputs were tagged
    with.  Returns whether it was stored; ``col`` keeps the residual.
    """
    low = _low(col, table, p, tag)
    if low is None:
        return False
    v = col[low]
    if v != 1:
        if v == -1:
            s = -1
        elif p is None:
            s = 1 / Fraction(v)
        elif p:
            s = pow(v, -1, p)
        else:
            return False  # a non-unit over Z
        col = _scaled(col, s, p)
        if tag is not None:
            tag = _scaled(tag, s, p)
    table[low] = col, tag
    return True


def _scaled(vec, s, p):
    """``s * vec``, mod p for a prime p."""
    if p:
        return {i: x * s % p for i, x in vec.items()}
    return {i: x * s for i, x in vec.items()}


def _rank(vectors, p):
    """The rank of sparse vectors over Q (p=None) or Z_p; they are used up."""
    table = {}
    for vec in vectors:
        _add(vec, table, p)
    return len(table)


def _column_reduce(columns, p, table=None):
    """Reduce sparse columns by their lows with ``_add``; returns (lows, core).

    ``columns`` is an iterable of ``{row: value}`` dicts with no entry that
    is 0 (mod p), and is used up; they are taken in its order, and ``lows``
    lists the lows of the stored ones in ``table`` (empty by default).  A
    generator may store a column into ``table`` itself, between two reads,
    as ``_add`` would store it: unchanged, 1 at a free low; a stored vector
    is read only by ``items()``.  Over Z (p=0) a column left with a
    non-unit low is set aside, and at the end reduced at every row that is
    a low, largest first.  ``core`` is what is left, one dense row per
    nonzero set-aside column, on the rows that are not lows; a later column
    may have taken its low, so it may hold units.  The moves are unimodular
    column operations, and the stored columns are unitriangular on the rows
    ``lows``, where the core is zero: the invariant factors are
    ``(1,) * len(lows)`` and the core's, the rank over any field is
    ``len(lows)`` plus the core's, and the rows ``lows`` alone have
    invariant factors all 1.  Over Q and Z_p every low is a unit, so the
    core is empty and ``len(lows)`` is the rank.
    """
    table, aside = {} if table is None else table, []
    for col in columns:
        if not _add(col, table, p) and col:
            aside.append(col)
    for col in aside:
        while (low := max((i for i in col if i in table), default=None)) is not None:
            _subtract(col, col[low], table[low][0], 0)
    rows = sorted({i for col in aside for i in col})
    return list(table), [[col.get(i, 0) for i in rows] for col in aside if col]


def invariant_factors(a):
    """The invariant factors of an IntegerMatrix: the diagonal of its Smith form."""
    columns = {j: {} for j in range(a.cols)}
    for (i, j), v in a.entries.items():
        columns[j][i] = v
    lows, core = _column_reduce(columns.values(), 0)
    return (1,) * len(lows) + _diagonalize(core)


def field_rank(rows, p=None):
    """Rank of dense rows over Q (p=None) or Z_p.

    Over Q a float is read exactly, as the binary fraction it holds, and an
    entry that is neither rational nor a finite float is refused; Z_p takes
    integer entries only.
    """
    if p is not None and p < 2:
        raise InputError(f"Z_{p} is not a field")
    vectors = []
    for i, row in enumerate(rows):
        if p is None:
            row = [_rational(i, j, x) for j, x in enumerate(row)]
        else:
            for j, x in enumerate(row):
                _check_integer(i, j, x, f"Z_{p}")
        vectors.append(_normal(dict(enumerate(row)), p))
    return _rank(vectors, p)
