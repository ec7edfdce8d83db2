"""Property tests of the sparse unit-pivot elimination core.

The dense minimal-pivot Smith elimination ``_diagonalize`` and the dense
field elimination ``field_rank`` are the oracles: invariant factors and
ranks are unique, so the sparse path must agree with them exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dvrhom import (
    IntegerMatrix,
    build_complex,
    f_vector,
    field_rank,
    homology_field,
    invariant_factors,
    random_digraph,
    restrict_to,
)
from dvrhom.homology import _relative_bases, _relative_boundary, boundary_matrix
from dvrhom.matrices import _diagonalize, _unit_eliminate

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
        yield _relative_boundary(k, bases, n)


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
