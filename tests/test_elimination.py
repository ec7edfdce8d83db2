"""Property tests of the sparse elimination cores.

The dense minimal-pivot Smith elimination ``_diagonalize`` and the dense
field elimination ``field_rank`` are the oracles: invariant factors and
ranks are unique, so the sparse path must agree with them exactly.  The
echelon bases of the long exact sequence check are held to the dense row
reduction and linear solver of ``oracles``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrhom import (
    InputError,
    IntegerMatrix,
    build_complex,
    f_vector,
    field_rank,
    homology_field,
    invariant_factors,
    random_digraph,
    restrict_to,
)
from dvrhom.homology import (
    _FieldComplex,
    _relative_bases,
    _relative_boundary,
    boundary_matrix,
)
from dvrhom.matrices import _diagonalize, _unit_eliminate
from oracles import dense_rref, field_solve

FIELDS = (None, 2, 3)  # Q, Z_2, Z_3

entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 6))


@st.composite
def integer_matrices(draw):
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8))
    return IntegerMatrix(
        m, n, {(i, j): draw(entries) for i in range(m) for j in range(n)}
    )


@st.composite
def digraph_pairs(draw):
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    g = random_digraph(n, p, draw(st.integers(0, 10**6)))
    k = build_complex(g)
    subset = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return k, restrict_to(k, tuple(sorted(subset)))


def dense_factors(a):
    d, _, _ = _diagonalize(a.to_rows(), a.rows, a.cols, track=False)
    return tuple(d)


def boundaries(k, sub):
    top = len(f_vector(k)) - 1
    bases = _relative_bases(k, sub)
    for n in range(top + 2):
        yield boundary_matrix(k, n)
        yield _relative_boundary(bases, n)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_invariant_factors_match_dense_oracle(a):
    assert invariant_factors(a) == dense_factors(a)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_core_keeps_no_unit_and_field_ranks_add_up(a):
    ones, core = _unit_eliminate(a)
    assert all(x not in (1, -1) for row in core for x in row)
    assert all(any(row) for row in core)
    assert all(any(col) for col in zip(*core))
    dense = a.to_rows()
    for p in FIELDS:
        assert ones + field_rank(core, p) == field_rank(dense, p)


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_boundary_invariant_factors_match_dense_oracle(pair):
    k, sub = pair
    for a in boundaries(k, sub):
        assert invariant_factors(a) == dense_factors(a)


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_field_betti_numbers_match_dense_ranks(pair):
    k, _ = pair
    fv = f_vector(k)
    dense = [boundary_matrix(k, n).to_rows() for n in range(len(fv) + 1)]
    for spec, p in (("q", None), (2, 2), (3, 3)):
        ranks = [field_rank(rows, p) for rows in dense]
        expect = [fv[n] - ranks[n] - ranks[n + 1] for n in range(len(fv))]
        assert homology_field(k, spec) == expect


def pair_bases(k, sub):
    """Simplex bases of X, A and (X, A) in every degree of X."""
    x = [list(level) for level in k.by_dimension]
    a = [[s for s in level if s in sub.index] for level in k.by_dimension]
    return x, a, _relative_bases(k, sub)


def dense_rank(bases, n, p):
    return len(dense_rref(_relative_boundary(bases, n).to_rows(), p)[1])


def normal(x, p):
    return x if p is None else x % p


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_echelon_homology_dimensions(pair):
    k, sub = pair
    x, a, r = pair_bases(k, sub)
    for spec, p in (("q", None), (2, 2), (3, 3)):
        dims = [
            [len(reps) for reps in _FieldComplex(b, p).hom_reps] for b in (x, a, r)
        ]
        assert dims[0] == homology_field(k, spec)
        betti_a = homology_field(sub, spec)
        assert dims[1] == betti_a + [0] * (len(dims[1]) - len(betti_a))
        assert dims[2] == [
            len(r[n]) - dense_rank(r, n, p) - dense_rank(r, n + 1, p)
            for n in range(len(r))
        ]


def with_boundary(rng, boundary_rows, reps, coeffs):
    """The chain sum(coeffs[h] * reps[h]) plus a random boundary."""
    w = [rng.randint(-3, 3) for _ in (boundary_rows[0] if boundary_rows else ())]
    vec = {i: sum(x * y for x, y in zip(row, w)) for i, row in enumerate(boundary_rows)}
    for a, rep in zip(coeffs, reps):
        for i, x in rep.items():
            vec[i] = vec.get(i, 0) + a * x
    return vec


def check_coordinates(c, bases, n, p, rng):
    reps = c.hom_reps[n]
    bd_next = _relative_boundary(bases, n + 1).to_rows()
    for h, rep in enumerate(reps):
        unit = [int(g == h) for g in range(len(reps))]
        assert c.coords(n, rep) == unit
        assert c.coords(n, with_boundary(rng, bd_next, reps, unit)) == unit
    coeffs = [rng.randint(-3, 3) for _ in reps]
    z = with_boundary(rng, bd_next, reps, coeffs)
    expect = [normal(a, p) for a in coeffs]
    assert c.coords(n, z) == expect
    # The dense solver writes z on the boundary columns followed by the
    # representatives; the classes are its last entries.
    dense = [row + [rep.get(i, 0) for rep in reps] for i, row in enumerate(bd_next)]
    solution = field_solve(dense, [z.get(i, 0) for i in range(len(dense))], p)
    assert solution is not None
    assert solution[len(solution) - len(reps) :] == expect
    bd = _relative_boundary(bases, n).to_rows()
    for j in range(len(bases[n])):
        if any(row[j] for row in bd):
            with pytest.raises(InputError):
                c.coords(n, {j: 1})


@settings(max_examples=60, deadline=None)
@given(digraph_pairs(), st.integers(0, 10**6))
def test_echelon_coordinates(pair, seed):
    k, sub = pair
    rng = random.Random(seed)
    for p in FIELDS:
        for bases in pair_bases(k, sub):
            c = _FieldComplex(bases, p)
            for n in range(len(bases)):
                check_coordinates(c, bases, n, p, rng)
