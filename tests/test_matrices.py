import random
import re
from fractions import Fraction

import pytest

from dvrhom import InputError, IntegerMatrix, field_rank, invariant_factors
from dvrhom.matrices import _PRIME_LIMIT
from oracles import (
    dense_rref,
    determinant,
    field_nullspace,
    field_solve,
    identity,
    integer_rank,
    matmul,
    rational_rank,
    smith_normal_form,
    transpose,
)


def gcd_of_entries(rows):
    from math import gcd

    g = 0
    for row in rows:
        for x in row:
            g = gcd(g, abs(x))
    return g


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_integer_matrix_drops_zero_entries():
    m = IntegerMatrix(2, 2, {(0, 0): 5, (1, 1): 0})
    assert m.entries == {(0, 0): 5}
    assert m[(1, 1)] == 0
    with pytest.raises(InputError):
        IntegerMatrix(1, 1, {(2, 0): 1})


def test_integer_matmul_and_transpose():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]
    assert transpose(a).to_rows() == [[1, 3], [2, 4]]


def test_snf_identity():
    sf = smith_normal_form(identity(3))
    assert sf.d == (1, 1, 1)


def test_snf_2x2_against_minor_gcd_oracle():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    sf = smith_normal_form(m)
    # d1 = gcd of all entries, d1*d2 = |det|
    assert sf.d[0] == gcd_of_entries(m.to_rows()) == 2
    assert sf.d[0] * sf.d[1] == abs(determinant(m)) == 8
    assert sf.d == (2, 4)


def test_snf_zero_matrix():
    assert smith_normal_form(IntegerMatrix(3, 2)).d == ()
    assert invariant_factors(IntegerMatrix(0, 5)) == ()


def test_snf_random_verification():
    rng = random.Random(2024)
    for trial in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = random_matrix(rng, m, n)
        a = IntegerMatrix.from_rows(rows)
        sf = smith_normal_form(a)
        # u a v = diag(d)
        assert matmul(matmul(sf.u, a), sf.v) == IntegerMatrix.diagonal(sf.d, m, n)
        # unimodular transforms
        assert determinant(sf.u) in (1, -1)
        assert determinant(sf.v) in (1, -1)
        # positive divisibility chain
        assert all(x > 0 for x in sf.d)
        assert all(sf.d[i + 1] % sf.d[i] == 0 for i in range(len(sf.d) - 1))
        # rank agrees with an independent elimination
        assert len(sf.d) == rational_rank(rows)
        assert integer_rank(a) == len(sf.d)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(5)

    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(20):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n)
        assert determinant(IntegerMatrix.from_rows(rows)) == cofactor_det(rows)


def test_field_rank_rational_and_modular():
    rows = [[2, 4], [1, 2]]
    assert field_rank(rows) == 1
    assert field_rank(rows, 3) == 1
    assert field_rank([[2, 0], [0, 3]], 3) == 1  # 3 == 0 mod 3
    assert field_rank([[2, 0], [0, 3]], 5) == 2
    assert field_rank([], None) == 0
    for p in (0, 1, 4, 6, 9):  # Z, Z_1 and Z_n for composite n are no fields
        with pytest.raises(InputError, match=f"^{p} is not prime"):
            field_rank([[2]], p)
    for p in (_PRIME_LIMIT, 10**400):  # too large for an exact primality test
        with pytest.raises(InputError, match=f"prime fields need p < {_PRIME_LIMIT}"):
            field_rank([[2]], p)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, Fraction(3)])
def test_field_rank_refuses_non_integer_entries_over_z_p(entry):
    with pytest.raises(InputError, match=rf"entry \(1, 0\) = {re.escape(repr(entry))}"):
        field_rank([[1, 0], [entry, 1]], 3)
    assert field_rank([[1, 0], [entry, 1]]) == 2  # fine over Q


def test_field_rank_reads_floats_exactly_over_q():
    # 0.6000000000000001 is not 3 * 0.2 in binary, nor 3.3000000000000003
    # 3 * 1.1: the exact rank is 2, where float elimination finds 1.
    assert field_rank([[0.2, 1.1], [0.6000000000000001, 3.3000000000000003]]) == 2
    assert field_rank([[0.5, 1.0], [1, 2]]) == 1


@pytest.mark.parametrize("entry", ["x", float("nan"), float("inf"), -float("inf"), None])
def test_field_rank_refuses_non_rational_entries_over_q(entry):
    message = rf"entry \(1, 0\) = {re.escape(repr(entry))} is not rational"
    with pytest.raises(InputError, match=message):
        field_rank([[1, 0], [entry, 1]])


@pytest.mark.parametrize("entry", [2.5, 2.0, "x", Fraction(1, 2), None])
def test_integer_matrix_refuses_non_integer_entries(entry):
    message = rf"entry \(1, 0\) = {re.escape(repr(entry))} is not an integer"
    with pytest.raises(InputError, match=message):
        IntegerMatrix(2, 2, {(0, 0): 1, (1, 0): entry})
    with pytest.raises(InputError, match=message):
        IntegerMatrix.from_rows([[1, 0], [entry, 1]])
    with pytest.raises(InputError, match=rf"entry \(1, 1\) = {re.escape(repr(entry))}"):
        IntegerMatrix.diagonal([3, entry], 2, 2)


def test_integer_matrix_diagonal_keeps_to_its_shape():
    assert IntegerMatrix.diagonal([3, 0, -2], 3, 4).entries == {(0, 0): 3, (2, 2): -2}
    with pytest.raises(InputError, match=r"entry \(2, 2\) out of range"):
        IntegerMatrix.diagonal([3, 0, -2], 2, 3)


def test_field_rank_matches_oracle():
    rng = random.Random(77)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        # Mostly zero entries, and a last row that is a combination of the
        # others, so it reduces to zero over every field.
        rows = random_matrix(rng, m, n, -2, 2)
        rows = [[x if rng.random() < 0.4 else 0 for x in row] for row in rows]
        rows.append([sum(2 * x for x in col) for col in zip(*rows)])
        for p in (2, 3, 5):
            assert field_rank(rows, p) == len(dense_rref(rows, p)[1]) <= m
        rational = [[Fraction(x, d) for x in row] for d, row in enumerate(rows, 1)]
        for q_rows in (rows, rational):
            assert field_rank(q_rows) == len(dense_rref(q_rows)[1])


def test_field_nullspace_and_solve():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = field_nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
    x = field_solve([[1, 1], [0, 1]], [3, 2])
    assert x == [1, 2]
    assert field_solve([[1, 0], [1, 0]], [1, 2]) is None
