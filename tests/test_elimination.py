"""Property tests of the sparse elimination cores.

The dense minimal-pivot Smith elimination ``_diagonalize`` and the dense
row reduction ``dense_rref`` of ``oracles`` are the oracles: invariant
factors and ranks are unique, so the sparse path must agree with them
exactly.  The top-down reduction with clearing is held to them and to the
homology oracles of ``oracles``, which reduce every full boundary map on
its own.  The echelon bases of the long exact sequence check, and its test
that consecutive maps compose to zero, are held to the dense row reduction,
linear solver and matrix product of ``oracles``; the representatives they
pick top-down with clearing are held to ``field_complex_oracle``, which
takes every boundary column bottom-up.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrhom import (
    InputError,
    IntegerMatrix,
    SimplicialComplex,
    build_complex,
    f_vector,
    field_rank,
    homology_field,
    homology_integer,
    invariant_factors,
    random_digraph,
    relative_homology,
    restrict_to,
)
from dvrhom.homology import (
    _boundary,
    _boundary_rows,
    _FieldComplex,
    _homology_groups,
    _kills,
    _reduce,
    _relative_bases,
    boundary_matrix,
)
from dvrhom.matrices import _diagonalize, _Echelon, _unit_eliminate
from oracles import (
    dense_boundary,
    dense_matmul,
    dense_rref,
    field_betti_oracle,
    field_complex_oracle,
    field_nullspace,
    field_solve,
    integer_homology_oracle,
)
from test_homology import RP2_FACES

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


def sparse_rows(a):
    rows = {}
    for (i, j), v in a.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


def boundaries(k, sub):
    top = len(f_vector(k)) - 1
    bases = _relative_bases(k, sub)
    for n in range(top + 2):
        yield boundary_matrix(k, n)
        yield IntegerMatrix.from_rows(dense_boundary(bases, n))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_invariant_factors_match_dense_oracle(a):
    assert invariant_factors(a) == dense_factors(a)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_core_keeps_no_unit_and_field_ranks_add_up(a):
    pivots, core = _unit_eliminate(sparse_rows(a))
    ones = len(pivots)
    assert all(x not in (1, -1) for row in core for x in row)
    assert all(any(row) for row in core)
    assert all(any(col) for col in zip(*core))
    dense = a.to_rows()
    for p in FIELDS:
        rank = len(dense_rref(core, p)[1])
        assert field_rank(core, p) == rank
        assert ones + rank == len(dense_rref(dense, p)[1])


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
        ranks = [len(dense_rref(rows, p)[1]) for rows in dense]
        expect = [fv[n] - ranks[n] - ranks[n + 1] for n in range(len(fv))]
        assert homology_field(k, spec) == expect


def pair_bases(k, sub):
    """Simplex bases of X, A and (X, A) in every degree of X."""
    x = [list(level) for level in k.by_dimension]
    a = [[s for s in level if s in sub.witness] for level in k.by_dimension]
    return x, a, _relative_bases(k, sub)


def dense_rank(bases, n, p):
    return len(dense_rref(dense_boundary(bases, n), p)[1])


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


def sparse(vec, p):
    """The nonzero entries of a dense vector over the field, by index."""
    return {i: y for i, x in enumerate(vec) if (y := normal(x, p))}


def with_boundary(rng, level, boundary_rows, reps, coeffs):
    """The chain sum(coeffs[h] * reps[h]) plus a random boundary.

    ``boundary_rows`` are the rows of the boundary map into ``level``.
    """
    w = [rng.randint(-3, 3) for _ in (boundary_rows[0] if boundary_rows else ())]
    vec = {
        s: sum(x * y for x, y in zip(row, w)) for s, row in zip(level, boundary_rows)
    }
    for a, rep in zip(coeffs, reps):
        for s, x in rep.items():
            vec[s] = vec.get(s, 0) + a * x
    return vec


def check_coordinates(c, bases, n, p, rng, level):
    """Hold the classes of degree n to the dense solver; ``level`` is X's."""
    reps, basis = c.hom_reps[n], bases[n]
    bd_next = dense_boundary(bases, n + 1)
    for h, rep in enumerate(reps):
        unit = [int(g == h) for g in range(len(reps))]
        assert c.coords(n, rep) == {h: 1}
        assert c.coords(n, with_boundary(rng, basis, bd_next, reps, unit)) == {h: 1}
    coeffs = [rng.randint(-3, 3) for _ in reps]
    z = with_boundary(rng, basis, bd_next, reps, coeffs)
    expect = [normal(a, p) for a in coeffs]
    assert c.coords(n, z) == sparse(expect, p)
    # The dense solver writes z on the boundary columns followed by the
    # representatives; the classes are its last entries.
    dense = [row + [rep.get(s, 0) for rep in reps] for s, row in zip(basis, bd_next)]
    solution = field_solve(dense, [z.get(s, 0) for s in basis], p)
    assert solution is not None
    assert solution[len(solution) - len(reps) :] == expect
    bd = dense_boundary(bases, n)
    for j, s in enumerate(basis):
        if any(row[j] for row in bd):
            with pytest.raises(InputError):
                c.coords(n, {s: 1})
    # A chain on a simplex outside the basis is refused, cycle or not.
    for s in set(level).difference(basis):
        with pytest.raises(InputError):
            c.coords(n, {s: 1})


@settings(max_examples=60, deadline=None)
@given(digraph_pairs(), st.integers(0, 10**6))
def test_echelon_coordinates(pair, seed):
    k, sub = pair
    rng = random.Random(seed)
    for p in FIELDS:
        for bases in pair_bases(k, sub):
            c = _FieldComplex(bases, p)
            for n in range(len(bases)):
                check_coordinates(c, bases, n, p, rng, k.by_dimension[n])


@pytest.mark.parametrize("p", FIELDS)
def test_connecting_map_refuses_a_boundary_outside_the_subcomplex(p):
    # The LES hands the boundary in X of a relative cycle to the coordinates
    # of A.  On the hollow triangle with A the edge (0, 1), the boundary of
    # that edge is a cycle of A, and the boundary of (1, 2) leaves A.
    k = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
    ca = _FieldComplex([[(0,), (1,)], [(0, 1)]], p)
    assert ca.coords(0, _boundary({(0, 1): 1}, k.witness)) == {}
    assert ca.coords(0, {(1,): 1}) == {0: 1}
    with pytest.raises(InputError):
        ca.coords(0, _boundary({(1, 2): 1}, k.witness))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_composite_check_matches_dense_product(data):
    # ``out`` has b columns of length c; the columns of ``into`` are vectors
    # of length b, mostly from the left kernel of ``out`` (so the composite
    # is zero), sometimes with a random vector added.
    def vectors(length, **size):
        return data.draw(
            st.lists(st.lists(entries, min_size=length, max_size=length), **size)
        )

    b, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    out, noise = vectors(c, min_size=b, max_size=b), vectors(b, max_size=3)
    mix = data.draw(st.lists(st.integers(-2, 2), min_size=b, max_size=b))
    for p in FIELDS:
        kernel = field_nullspace([list(row) for row in zip(*out)], b, p)
        into = [[sum(a * v[j] for a, v in zip(mix, kernel)) for j in range(b)]]
        into += [[x + y for x, y in zip(into[0], row)] for row in noise]
        zero = not any(map(any, dense_matmul(into, out, p)))
        out_p, into_p = ([sparse(col, p) for col in m] for m in (out, into))
        assert _kills(_Echelon(p), out_p, into_p) == zero


# ---------------------------------------------------------------------------
# Top-down reduction with clearing.


@st.composite
def closed_complexes(draw):
    """A random downward-closed complex and a random subcomplex of it."""
    n = draw(st.integers(1, 7))
    faces = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5), max_size=8)
    )
    k = SimplicialComplex.from_simplices(faces)
    kept = []
    if faces:
        kept = draw(st.lists(st.sampled_from(list(k.simplices())), max_size=6))
    return k, SimplicialComplex.from_simplices(kept)


@st.composite
def projective_plane_pairs(draw):
    """RP^2 with a few random cells glued on, and a random subcomplex.

    Cells of degree 3 clear columns of the map of degree 2, whose non-unit
    core carries the torsion.
    """
    extra = draw(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=3)
    )
    k = SimplicialComplex.from_simplices(RP2_FACES + extra)
    kept = draw(st.lists(st.sampled_from(list(k.simplices())), max_size=5))
    return k, SimplicialComplex.from_simplices(kept)


def groups_of(result):
    return [(g.betti, g.torsion) for g in result]


def dense_homology(bases, p=None):
    """(Betti, torsion) per degree by dense elimination of every full map.

    ``_diagonalize`` over Z (p=None), the oracles' ``dense_rref`` over Z_p.
    """
    factors = []
    for n in range(len(bases) + 1):
        rows = dense_boundary(bases, n)
        if p is None:
            d, _, _ = _diagonalize(rows, len(rows), len(rows[0]) if rows else 0, False)
            factors.append(tuple(d))
        else:
            factors.append((1,) * len(dense_rref(rows, p)[1]))
    return [
        (len(basis) - len(factors[n]) - len(factors[n + 1]),
         tuple(d for d in factors[n + 1] if d > 1))
        for n, basis in enumerate(bases)
    ]


def check_pair(k, sub):
    """Hold every homology of (k, sub) to the oracles and to dense elimination."""
    for bases in pair_bases(k, sub):
        expect = integer_homology_oracle(bases)
        assert groups_of(_homology_groups(bases)) == expect
        assert dense_homology(bases) == expect
        for p in (None, 2, 3):
            betti = field_betti_oracle(bases, p)
            assert [g.betti for g in _homology_groups(bases, p)] == betti
            if p is not None:
                assert [b for b, _ in dense_homology(bases, p)] == betti
    assert groups_of(homology_integer(k)) == integer_homology_oracle(k.by_dimension)
    assert groups_of(relative_homology(k, sub)) == integer_homology_oracle(
        _relative_bases(k, sub)
    )
    reduced = groups_of(homology_integer(k, reduced=True))
    for spec, p in (("q", None), (2, 2), (3, 3)):
        betti = field_betti_oracle(k.by_dimension, p)
        assert homology_field(k, spec) == betti
        if betti:
            betti[0] -= 1
        assert homology_field(k, spec, reduced=True) == betti
        if p is None:
            assert [b for b, _ in reduced] == betti


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_clearing_matches_oracles_on_digraph_pairs(pair):
    check_pair(*pair)


@settings(max_examples=100, deadline=None)
@given(closed_complexes())
def test_clearing_matches_oracles_on_downward_closed_complexes(pair):
    check_pair(*pair)


@settings(max_examples=40, deadline=None)
@given(projective_plane_pairs())
def test_clearing_keeps_projective_plane_torsion(pair):
    check_pair(*pair)


def test_projective_plane_torsion_survives_clearing():
    # The non-unit core of the map of degree 2 is a single 2: clearing must
    # leave it alone, here and relative to a vertex.
    k = SimplicialComplex.from_simplices(RP2_FACES)
    vertex = SimplicialComplex.from_simplices([(0,)])
    assert groups_of(homology_integer(k)) == [(1, ()), (0, (2,)), (0, ())]
    assert groups_of(relative_homology(k, vertex)) == [(0, ()), (0, (2,)), (0, ())]
    assert _reduce(k.by_dimension) == ([0, 5, 10, 0], [(), (), (2,), ()])
    # A tetrahedron on the face (0, 1, 4) clears a column of that map.
    coned = SimplicialComplex.from_simplices(RP2_FACES + [(0, 1, 4, 6)])
    assert groups_of(homology_integer(coned)) == [
        (1, ()), (0, (2,)), (0, ()), (0, ())
    ]
    assert _reduce(coned.by_dimension) == ([0, 6, 12, 1, 0], [(), (), (2,), (), ()])


@settings(max_examples=120, deadline=None)
@given(st.one_of(digraph_pairs(), closed_complexes(), projective_plane_pairs()))
def test_les_representatives_match_the_non_clearing_oracle(pair):
    for bases in pair_bases(*pair):
        for p in FIELDS:
            expect = [
                [{level[i]: c for i, c in rep.items()} for rep in reps]
                for level, reps in zip(bases, field_complex_oracle(bases, p))
            ]
            assert _FieldComplex(bases, p).hom_reps == expect


def check_pivot_rows(rows):
    """The pivot rows of ``rows`` are distinct and have invariant factors all 1."""
    dense = {i: dict(row) for i, row in rows.items()}
    ncols = 1 + max((j for row in dense.values() for j in row), default=-1)
    pivots, _ = _unit_eliminate(rows)
    assert len(set(pivots)) == len(pivots)
    chosen = [[dense[i].get(j, 0) for j in range(ncols)] for i in pivots]
    d, _, _ = _diagonalize(chosen, len(chosen), ncols, False)
    assert tuple(d) == (1,) * len(pivots)
    return pivots


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_pivot_rows_are_unit_pivots(a):
    check_pivot_rows(sparse_rows(a))


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_boundary_pivot_rows_are_unit_pivots(pair):
    for bases in pair_bases(*pair):
        cleared = ()
        for n in range(len(bases) - 1, 0, -1):
            cleared = set(check_pivot_rows(_boundary_rows(bases, n, cleared)))
