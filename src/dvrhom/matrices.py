"""Exact linear algebra kernels: integer Smith normal form, field elimination.

Everything runs on Python integers and fractions, so there is no overflow
and no floating point anywhere.  The ring is named by ``p``: 0 for Z, None
for Q and a prime below ``_PRIME_LIMIT`` for Z_p.  Sparse vectors are
``{index: value}`` dicts.  One sparse core serves every ring: ``_add``
reduces a vector at its low, its largest index (the column reduction by
lowest row of persistent homology), and stores it, scaled to 1 at its low,
in a table keyed by that low when the low is a unit.  Over Q and Z_p every
nonzero low is a unit, so the stored vectors give the rank, which is all
the field reductions of ``homology`` read.  Over Z only +-1 lows are
stored; ``_column_reduce``, which serves ``invariant_factors`` and the
reduction of boundary maps in ``homology``, sets the other columns aside
and reduces them at every stored low at the end, and only what is left of
them goes through the dense Smith normal form ``_diagonalize``: plain
Euclidean steps, each on a pivot of least absolute value.  Boundary
matrices almost never leave anything there.  No command needs the
transforms of the Smith form, so none are kept.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .digraph import InputError


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


def _check_prime(p):
    """``p`` if it is a prime below ``_PRIME_LIMIT``; anything else is refused."""
    if not isinstance(p, int):
        raise InputError(f"coefficient field {p!r} is not an integer")
    if p >= _PRIME_LIMIT:
        raise InputError(f"prime fields need p < {_PRIME_LIMIT}")
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    return p


def _diagonalize(a):
    """In-place Smith elimination of the dense rows ``a``, all of one
    length; returns the diagonal, the invariant factors, as a tuple.

    Each round moves an entry of least absolute value in the block left,
    the first in row-major order, to its top-left and clears the pivot's
    row and column by floor quotients.  If a remainder is left, the round
    runs again.  If the pivot fails to divide some row of the rest of the
    block, that row is added to the pivot row and the round runs again.
    Otherwise |pivot| is a factor and its row and column are dropped.  The
    least nonzero |entry| drops within two rounds that finish no pivot: a
    remainder is below the pivot, which was least, and a round after a
    fold finds a smaller entry or takes the same pivot, first in row-major
    order, which leaves a remainder in its row.
    """
    m, n = len(a), len(a[0]) if a else 0
    t = 0
    while t < min(m, n):
        v = 0  # the least nonzero |entry|, first reached in row i
        for r in range(t, m):
            x = min(map(abs, filter(None, a[r])), default=0)
            if x and (not v or x < v):
                v, i = x, r
                if v == 1:
                    break
        if not v:
            break
        j = [*map(abs, a[i])].index(v)
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, m):
            if q := a[i][t] // p:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if q := a[t][j] // p:
                for row in a[t:]:
                    row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1 :]):
            continue
        for row in a[t + 1 :]:
            if any(x % p for x in row):
                a[t] = [x + y for x, y in zip(a[t], row)]
                break
        else:
            t += 1
    return tuple(abs(a[i][i]) for i in range(t))


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


def _add(col, table, p, build=None):
    """Reduce ``col`` in place at its low, its largest index, while
    ``table`` holds a vector there, and store the residual there if its low
    is a unit: +-1 over Z (p=0), any entry over Q (None) or Z_p.

    ``table`` maps lows to stored vectors, each 1 at its low; ``col``
    subtracts the one at its low times its own entry there, and holds no
    entry that is 0 (mod p).  A stored tuple is a pending vector: ``build``
    of it, which replaces it in ``table`` when first read.  The residual is
    stored scaled to 1 at its low.  Returns whether it was stored; ``col``
    keeps the residual.
    """
    while col:
        low = max(col)
        stored = table.get(low)
        if stored is None:
            break
        if type(stored) is tuple:
            stored = table[low] = build(stored)
        _subtract(col, col[low], stored, p)
    if not col:
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
        if p:
            col = {i: x * s % p for i, x in col.items()}
        else:
            col = {i: x * s for i, x in col.items()}
    table[low] = col
    return True


def _column_reduce(columns, p, table=None, build=None):
    """Reduce sparse columns by their lows with ``_add``; returns (lows, core).

    ``columns`` is an iterable of ``{row: value}`` dicts with no entry that
    is 0 (mod p), and is used up; they are taken in its order, and ``lows``
    lists the lows of the stored ones in ``table`` (empty by default).  A
    generator may store a column into ``table`` itself, between two reads,
    as ``_add`` would store it: unchanged, 1 at a free low, or pending, as
    a tuple t whose column ``build(t)`` is built in place when first read.
    Over Z (p=0) a column left with a non-unit low is set aside, and at the
    end reduced at every row that is a low, largest first, the rows taken
    from a heap of the column's lows.  ``core`` is what is left, one dense
    row per nonzero set-aside column, on the rows that are not lows; a
    later column may have taken its low, so it may hold units.  The moves
    are unimodular column operations, and the stored columns are
    unitriangular on the rows ``lows``, where the core is zero: the
    invariant factors are ``(1,) * len(lows)`` and the core's, the rank
    over any field is ``len(lows)`` plus the core's, and the rows ``lows``
    alone have invariant factors all 1.  Over Q and Z_p every low is a
    unit, so the core is empty and ``len(lows)`` is the rank.
    """
    table, aside = {} if table is None else table, []
    for col in columns:
        if not _add(col, table, p, build) and col:
            aside.append(col)
    if not aside:
        return list(table), []
    for col in aside:
        # A max-heap of the column's rows that are lows; a row that has
        # cancelled is skipped, and one that a subtraction brings in is
        # pushed, so each pop is the largest low left in the column.
        heap = [-i for i in col if i in table]
        heapify(heap)
        while heap:
            low = -heappop(heap)
            if low not in col:
                continue
            if type(stored := table[low]) is tuple:
                stored = table[low] = build(stored)
            for i in stored:
                if i not in col and i in table:
                    heappush(heap, -i)
            _subtract(col, col[low], stored, 0)
    rows = sorted({i for col in aside for i in col})
    return list(table), [[col.get(i, 0) for i in rows] for col in aside if col]


def invariant_factors(columns):
    """The invariant factors, the diagonal of the Smith form, of the matrix
    whose columns are the sparse ``{row: value}`` dicts ``columns``, none
    with a zero entry; they are used up."""
    lows, core = _column_reduce(columns, 0)
    return (1,) * len(lows) + _diagonalize(core)
