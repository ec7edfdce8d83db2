"""Property tests of the sparse elimination core.

The dense Smith elimination ``_diagonalize``, by Euclidean steps on a
pivot of least absolute value, and the Smith form with transforms
``smith_normal_form`` and dense row reduction ``dense_rref`` of
``oracles`` are the oracles: invariant factors and ranks are unique, so
the sparse path must agree with them exactly.  One core,
``matrices._add``, reduces a vector at its low and stores it when the low
is a unit, over Z (p=0), Q (None), Z_2 and Z_3; it
is held to the tagged elimination of ``oracles``, which must store the
same vector at the same low and leave the same residual: every stored
vector is 1 at its low, the oracle's tag, checked there, writes it as a
combination of the input columns, and over Z only a non-unit low is left
out.  The package builds boundary columns one degree at a time, over the
positions of the simplices of X (``_boundary_builder``), and never a whole
map; a pair is reduced on X's levels in A-first order (``_a_first``).
``pair_table_oracle`` builds the maps of X, A and X/A whole, from dense
maps on a simplex basis of X, on the same positions.  The other oracles
build their own dense maps from simplex bases, so every check translates
between the two.  The column reduction ``_column_reduce`` is held to the dense Smith form and row reduction: its lows, the faces that
clear the map below, must be distinct, and the rows there alone must carry
invariant factors all 1 over Z and full rank over a field; matrices built
with non-unit lows drive its set-aside core.  The top-down reduction with
clearing is held to the oracles of ``oracles``, which reduce every full
boundary map on its own; its columns stored pending, as their bare
simplices (apparent pairs), are built with the level's column builder and
held to ``_column_reduce`` on the maps built whole, which must store,
clear and set aside the same.  The long exact sequence check reads its
ranks off one reduction of X with A's simplices first, ``_filtered_ranks``,
called once per degree of the check's top-down pass; its stored columns,
lows, masks and ranks are held to that reduction of the maps built whole
and to dense ranks.  Its nodes are held to
``field_betti_oracle`` (their order, dimensions and the ranks exactness
leaves) and to ``les_chain_oracle`` of ``oracles``, which maps homology
representatives through the chain maps.  The oracle's tagged tables, fed
the whole maps of ``pair_table_oracle`` one degree at a time, and its test
that consecutive maps compose to zero, are held to the dense row
reduction, linear solver and matrix product of ``oracles``; the
representatives they pick top-down with clearing, on positions of X, are
held to ``field_complex_oracle``, which takes every boundary column
bottom-up, and those it streams to X, A and X/A, degree by degree, to
those fed the whole maps.
"""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrhom import (
    InputError,
    SimplicialComplex,
    build_complex,
    circulant,
    digital_image,
    f_vector,
    homology,
    homology_field,
    homology_integer,
    invariant_factors,
    les_exactness_check,
    matrices,
    random_digraph,
    relative_homology,
    restrict_to,
)
from dvrhom.homology import (
    _a_first,
    _boundary_builder,
    _filtered_ranks,
    _homology_groups,
    _reduce,
    _reduce_degree,
    NodeReport,
)
from dvrhom.matrices import _add, _column_reduce, _diagonalize
import oracles
from oracles import (
    IntegerMatrix,
    _apply,
    _FieldComplex,
    _kills,
    dense_boundary,
    dense_matmul,
    dense_rref,
    field_betti_oracle,
    field_complex_oracle,
    field_nullspace,
    field_solve,
    integer_homology_oracle,
    les_chain_oracle,
    pair_table_oracle,
    smith_normal_form,
    columns,
    tagged_add,
)
from test_homology import RP2_FACES, boundary_matrix

# RP^2 with its vertices 2, 3, 4 renamed 3, 4, 2: the column of (0, 1, 2),
# stored pending, is first read by the set-aside pass over Z.
RP2_RENAMED = SimplicialComplex.from_simplices(
    [tuple(sorted((0, 1, 3, 4, 2, 5)[v] for v in f)) for f in RP2_FACES]
)
OCTAHEDRON = build_complex(circulant(6, 2))

FIELDS = (None, 2, 3)  # Q, Z_2, Z_3
RINGS = (0,) + FIELDS  # and Z

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
    return _diagonalize(a.to_rows())


def column_table(a, p=0):
    """The columns of ``a`` as ``{column: {row: value}}``, entries mod p over Z_p."""
    columns = {j: {} for j in range(a.cols)}
    for (i, j), v in a.entries.items():
        if y := normal(v, p):
            columns[j][i] = y
    return columns


def boundaries(k, sub):
    top = len(f_vector(k)) - 1
    bases = pair_bases(k, sub)[2]
    for n in range(top + 2):
        yield boundary_matrix(k, n)
        yield IntegerMatrix.from_rows(dense_boundary(bases, n))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(IntegerMatrix.from_rows([[2, 0], [0, 3]]))  # (1, 6): row 1 is folded in
@example(IntegerMatrix.from_rows([[-4]]))  # (4,)
@example(IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))  # (2, 6, 12)
@example(IntegerMatrix(2, 0))
@example(IntegerMatrix(0, 3))
def test_invariant_factors_match_dense_oracle(a):
    assert invariant_factors(columns(a)) == dense_factors(a) == smith_normal_form(a).d


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_core_lies_off_the_lows_and_field_ranks_add_up(a):
    # Each core row is a nonzero set-aside column, on the rows off the lows.
    lows, core = _column_reduce(column_table(a).values(), 0)
    assert all(any(row) for row in core)
    assert all(any(col) for col in zip(*core))
    assert len(core[0] if core else ()) <= a.rows - len(lows)
    dense = a.to_rows()
    for p in FIELDS:
        rank = len(dense_rref(dense, p)[1])
        assert len(lows) + len(dense_rref(core, p)[1]) == rank
        lows_p, core_p = _column_reduce(column_table(a, p).values(), p)
        assert (len(lows_p), core_p) == (rank, [])


@st.composite
def non_unit_low_matrices(draw):
    """Matrices whose columns mostly end in a non-unit entry.

    The reduction sets such columns aside and reduces them at every low, so
    these reach the dense core far more often than boundary maps do.
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    cells = {}
    for j in range(n):
        low = draw(st.integers(0, m - 1))
        cells[(low, j)] = draw(st.sampled_from((2, -2, 3, 6, -4, 1, -1)))
        for i in range(low):
            cells[(i, j)] = draw(entries)
    return IntegerMatrix(m, n, cells)


@settings(max_examples=300, deadline=None)
@given(non_unit_low_matrices())
def test_non_unit_lows_match_the_smith_form(a):
    assert invariant_factors(columns(a)) == smith_normal_form(a).d
    dense = a.to_rows()
    for p in FIELDS:
        lows, core = _column_reduce(column_table(a, p).values(), p)
        assert (len(lows), core) == (len(dense_rref(dense, p)[1]), [])


def reduced(vec, p):
    """The nonzero entries of a sparse vector over the ring."""
    return {i: y for i, x in vec.items() if (y := normal(x, p))}


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_matrices(), non_unit_low_matrices()))
def test_core_stores_tagged_vectors_scaled_at_their_lows(a):
    # Every column goes into the core's table and, tagged with itself, into
    # the oracle's; both store the same vector at the same low.
    for p in RINGS:
        columns = column_table(a, p)
        table, tagged = {}, {}
        for j, col in columns.items():
            vec = dict(col)
            stored = _add(vec, table, p)
            assert tagged_add(col, {j: 1}, tagged, p)[::2] == (vec, stored)
            if not stored and vec:
                # Only Z leaves a nonzero residual out, for its non-unit low.
                low = max(vec)
                assert p == 0 and low not in table and vec[low] not in (1, -1)
        assert table == {low: vec for low, (vec, _) in tagged.items()}
        for low, (vec, tag) in tagged.items():
            assert max(vec) == low and vec[low] == 1
            # The stored vector is the combination its tag gives of the inputs.
            combination = {}
            for j, c in tag.items():
                for i, x in columns[j].items():
                    combination[i] = combination.get(i, 0) + c * x
            assert reduced(combination, p) == reduced(vec, p)


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_boundary_invariant_factors_match_dense_oracle(pair):
    k, sub = pair
    for a in boundaries(k, sub):
        assert invariant_factors(columns(a)) == dense_factors(a)


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
    r = [[s for s in level if s not in sub.witness] for level in k.by_dimension]
    return x, a, r


def pair_tables(k, sub):
    """The boundary maps of X, A and (X, A), built whole on X's positions."""
    return pair_table_oracle(k.by_dimension, sub.witness)


def pair_parts(k, sub):
    """(simplex bases, boundary table) of X, A and (X, A), in that order."""
    return zip(pair_bases(k, sub), pair_tables(k, sub))


def field_complex(table, p):
    """The ``_FieldComplex`` of whole boundary maps, fed one degree at a
    time, top-down, as ``les_chain_oracle`` feeds it.  It is yielded
    with each degree n once n is reduced: its ``span`` and ``reps`` are
    then degree n's, and ``coords`` reads degree n."""
    c = _FieldComplex(p)
    for n in range(len(table) - 1, -1, -1):
        c.reduce(table[n].items())
        yield n, c


def positions(k, bases):
    """The position in X of every simplex of ``bases``, degree by degree."""
    pos = [{s: i for i, s in enumerate(level)} for level in k.by_dimension]
    return [[pos[n][s] for s in basis] for n, basis in enumerate(bases)]


def dense_rank(bases, n, p):
    return len(dense_rref(dense_boundary(bases, n), p)[1])


def normal(x, p):
    return x % p if p else x


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_echelon_homology_dimensions(pair):
    k, sub = pair
    r = pair_bases(k, sub)[2]
    for spec, p in (("q", None), (2, 2), (3, 3)):
        dims = [
            [len(c.reps) for _, c in field_complex(t, p)][::-1]
            for t in pair_tables(k, sub)
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


def with_boundary(rng, basis, boundary_rows, reps, coeffs):
    """The chain sum(coeffs[h] * reps[h]) plus a random boundary.

    ``boundary_rows`` are the rows of the boundary map into the degree whose
    simplices have the positions ``basis``.
    """
    w = [rng.randint(-3, 3) for _ in (boundary_rows[0] if boundary_rows else ())]
    vec = {
        i: sum(x * y for x, y in zip(row, w)) for i, row in zip(basis, boundary_rows)
    }
    for a, rep in zip(coeffs, reps):
        for i, x in rep.items():
            vec[i] = vec.get(i, 0) + a * x
    return vec


def check_coordinates(c, bases, n, p, rng, basis, level):
    """Hold the classes of degree n to the dense solver.

    ``c`` is the ``_FieldComplex`` of the complex with simplex bases
    ``bases``, just after degree n; ``basis`` holds the positions in X of
    ``bases[n]`` and ``level`` is X's degree n.
    """
    reps = c.reps
    bd_next = dense_boundary(bases, n + 1)
    for h, rep in enumerate(reps):
        unit = [int(g == h) for g in range(len(reps))]
        assert c.coords(rep) == {h: 1}
        assert c.coords(with_boundary(rng, basis, bd_next, reps, unit)) == {h: 1}
    coeffs = [rng.randint(-3, 3) for _ in reps]
    z = with_boundary(rng, basis, bd_next, reps, coeffs)
    expect = [normal(a, p) for a in coeffs]
    assert c.coords(z) == sparse(expect, p)
    # The dense solver writes z on the boundary columns followed by the
    # representatives; the classes are its last entries.
    dense = [row + [rep.get(i, 0) for rep in reps] for i, row in zip(basis, bd_next)]
    solution = field_solve(dense, [z.get(i, 0) for i in basis], p)
    assert solution is not None
    assert solution[len(solution) - len(reps) :] == expect
    bd = dense_boundary(bases, n)
    for j, i in enumerate(basis):
        if any(row[j] for row in bd):
            with pytest.raises(InputError):
                c.coords({i: 1})
    # A chain on a simplex outside the basis is refused, cycle or not.
    for i in set(range(len(level))).difference(basis):
        with pytest.raises(InputError):
            c.coords({i: 1})


@settings(max_examples=60, deadline=None)
@given(digraph_pairs(), st.integers(0, 10**6))
def test_echelon_coordinates(pair, seed):
    k, sub = pair
    rng = random.Random(seed)
    for p in FIELDS:
        for bases, table in pair_parts(k, sub):
            where = positions(k, bases)
            for n, c in field_complex(table, p):
                check_coordinates(c, bases, n, p, rng, where[n], k.by_dimension[n])


@pytest.mark.parametrize("p", FIELDS)
def test_connecting_map_refuses_a_boundary_outside_the_subcomplex(p):
    # The chain-level LES hands the boundary in X of a relative cycle to the
    # coordinates of A.  On the hollow triangle with A the edge (0, 1), the
    # boundary of that edge is a cycle of A, and the boundary of (1, 2)
    # leaves A.
    # Positions: vertices 0, 1, 2 and edges (0, 1), (0, 2), (1, 2).
    k = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
    sub = SimplicialComplex.from_simplices([(0, 1)])
    table, a, _ = pair_tables(k, sub)
    assert a == [{0: {}, 1: {}}, {0: {0: -1, 1: 1}}]
    *_, (n, ca) = field_complex(a, p)
    assert n == 0
    assert _apply(table[1], {0: 1}) == {0: -1, 1: 1}
    assert ca.coords(_apply(table[1], {0: 1})) == {}
    assert ca.coords({1: 1}) == {0: 1}
    with pytest.raises(InputError):
        ca.coords(_apply(table[1], {2: 1}))


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
        assert _kills(p, out_p, into_p) == zero


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
    """RP^2 with a few random cells glued on, its vertices relabelled, and a
    random subcomplex.

    Cells of degree 3 clear columns of the map of degree 2, whose set-aside
    core carries the torsion.  The relabelling changes which columns are
    stored pending and so which of them the set-aside pass over Z reads
    first (as in ``RP2_RENAMED``).
    """
    extra = draw(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=3)
    )
    rename = draw(st.permutations(range(8)))
    k = SimplicialComplex.from_simplices(
        [[rename[v] for v in f] for f in RP2_FACES + extra]
    )
    kept = draw(st.lists(st.sampled_from(list(k.simplices())), max_size=5))
    return k, SimplicialComplex.from_simplices(kept)


def groups_of(result):
    return [(g.betti, g.torsion) for g in result]


def dense_homology(bases, p=0):
    """(Betti, torsion) per degree by dense elimination of every full map.

    ``_diagonalize`` over Z (p=0), the oracles' ``dense_rref`` over Q
    (p=None) or Z_p.
    """
    factors = []
    for n in range(len(bases) + 1):
        rows = dense_boundary(bases, n)
        if p == 0:
            factors.append(_diagonalize(rows))
        else:
            factors.append((1,) * len(dense_rref(rows, p)[1]))
    return [
        (len(basis) - len(factors[n]) - len(factors[n + 1]),
         tuple(d for d in factors[n + 1] if d > 1))
        for n, basis in enumerate(bases)
    ]


def check_pair(k, sub):
    """Hold every homology of (k, sub) to the oracles and to dense elimination."""
    # X, A on its own positions (padded to the degrees of X), and X/A.
    x, a, r = pair_bases(k, sub)
    for bases, levels, first in (
        (x, k.by_dimension, [0] * len(x)),
        (a, sub.by_dimension, [0] * len(sub.by_dimension)),
        (r, *_a_first(k, sub)),
    ):
        pad = [(0, ())] * (len(bases) - len(first))
        expect = integer_homology_oracle(bases)
        assert groups_of(_homology_groups(levels, first, 0)) + pad == expect
        assert dense_homology(bases) == expect
        for p in FIELDS:
            betti = field_betti_oracle(bases, p)
            groups = _homology_groups(levels, first, p)
            assert [g.betti for g in groups] + [0] * len(pad) == betti
            assert [b for b, _ in dense_homology(bases, p)] == betti
    assert groups_of(homology_integer(k)) == integer_homology_oracle(k.by_dimension)
    assert groups_of(relative_homology(k, sub)) == integer_homology_oracle(
        pair_bases(k, sub)[2]
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
    # The core of the map of degree 2 is one set-aside column with invariant
    # factor 2: clearing must leave it alone, here and relative to a vertex.
    k = SimplicialComplex.from_simplices(RP2_FACES)
    vertex = SimplicialComplex.from_simplices([(0,)])
    assert groups_of(homology_integer(k)) == [(1, ()), (0, (2,)), (0, ())]
    assert groups_of(relative_homology(k, vertex)) == [(0, ()), (0, (2,)), (0, ())]
    assert _reduce(k.by_dimension, [0] * (k.dim + 1), 0) == (
        [0, 5, 10, 0], [(), (), (2,), ()]
    )
    # A tetrahedron on the face (0, 1, 4) clears a column of that map.
    coned = SimplicialComplex.from_simplices(RP2_FACES + [(0, 1, 4, 6)])
    assert groups_of(homology_integer(coned)) == [
        (1, ()), (0, (2,)), (0, ()), (0, ())
    ]
    assert _reduce(coned.by_dimension, [0] * (coned.dim + 1), 0) == (
        [0, 6, 12, 1, 0], [(), (), (2,), (), ()]
    )


def reductions(levels, first, p):
    """Per degree, top-down: ``(table, lows, core, build)`` of ``_reduce``'s
    column reductions, each caught where it calls ``_column_reduce``, with
    the level's column builder."""
    caught = []

    def spy(columns, p, table=None, build=None):
        lows, core = _column_reduce(columns, p, table, build)
        caught.append((table, lows, [row[:] for row in core], build))  # core is diagonalized in place
        return lows, core

    with mock.patch.object(homology, "_column_reduce", spy):
        _reduce(levels, first, p)
    return caught


def eager_reductions(table, p):
    """The same, for the boundary maps ``table`` of ``pair_table_oracle``,
    built whole and reduced by ``_column_reduce`` with the same clearing."""
    out, cleared = [], ()
    for n in range(len(table) - 1, 0, -1):
        stored = {}
        columns = (dict(c) for j, c in table[n].items() if j not in cleared)
        lows, core = _column_reduce(columns, p, stored)
        out.append((stored, lows, core))
        cleared = set(lows)
    return out


def pending_built(stored, build, pending):
    """The vectors of ``stored``: the built ones, and with ``pending`` also
    the pending ones, stored as their simplex, built now by ``build``."""
    return {
        low: build(vec) if type(vec) is tuple else vec
        for low, vec in stored.items()
        if pending or type(vec) is not tuple
    }


def check_lazy_reduction(k, sub):
    """``_reduce`` stores, clears and sets aside what the eager reduction
    does, for X and for (X, A), in every degree and ring; (X, A) on X's
    levels in A-first order, which the eager maps are built on too."""
    levels, first = _a_first(k, sub)
    assert (levels, first) == a_first(k, sub)
    x = pair_tables(k, sub)[0]
    quotient = pair_table_oracle(levels, sub.witness)[2]
    absolute = (k.by_dimension, [0] * len(first))
    for order, table in ((absolute, x), ((levels, first), quotient)):
        for p in RINGS:
            lazy = reductions(*order, p)
            eager = eager_reductions(table, p)
            assert [r[1:3] for r in lazy] == [r[1:] for r in eager]
            for (stored, _, _, build), (expect, _, _) in zip(lazy, eager):
                # A built column is the eager one; so is one built only now.
                for pending in (False, True):
                    built = pending_built(stored, build, pending)
                    assert built == {low: expect[low] for low in built}
                assert stored.keys() == expect.keys()


@settings(max_examples=80, deadline=None)
@given(st.one_of(digraph_pairs(), closed_complexes(), projective_plane_pairs()))
@example((RP2_RENAMED, restrict_to(RP2_RENAMED, ())))
def test_lazy_reduction_matches_the_eager_one(pair):
    check_lazy_reduction(*pair)


def pending_reads(run):
    """Call ``run()``; for each pending column that a ``_column_reduce`` of
    it builds: whether that call found it pending in the table on entry,
    and whether ``_add`` built it (else the set-aside pass did)."""
    reads, in_add, real_add = [], [], matrices._add

    def add(*args):
        in_add.append(True)
        try:
            return real_add(*args)
        finally:
            in_add.pop()

    def spy(columns, p, table=None, build=None):
        pending = {s for s in table.values() if type(s) is tuple}

        def counted(s):
            reads.append((s in pending, bool(in_add)))
            return build(s)

        return _column_reduce(columns, p, table, counted)

    with mock.patch.object(matrices, "_add", add):
        with mock.patch.object(homology, "_column_reduce", spy):
            run()
    return reads


def test_pending_columns_are_built_where_they_are_first_read():
    # The examples of the two lazy-reduction property tests reach both
    # paths that build a pending column outside the call's own _add: the
    # set-aside pass of RP^2's torsion, and _filtered_ranks's second call
    # reading a column that its first call stored.
    levels = RP2_RENAMED.by_dimension
    reads = pending_reads(lambda: _reduce(levels, [0] * len(levels), 0))
    assert (False, False) in reads
    sub = restrict_to(OCTAHEDRON, (0, 1, 2))
    for p in FIELDS:
        check = lambda: les_exactness_check(OCTAHEDRON, sub, "q" if p is None else p)
        assert (True, True) in pending_reads(check)


@pytest.mark.parametrize("extra", [[], [(0, 1, 4, 6)]])
def test_lazy_reduction_on_projective_planes(extra):
    # RP^2 and RP^2 coned over the face (0, 1, 4), absolute and relative.
    # The low face s[1:] of a simplex s outside A may lie in A; then the
    # column loses it in X/A and is built at once.  No low face is the
    # vertex 0.
    k = SimplicialComplex.from_simplices(RP2_FACES + extra)
    for kept in ([(3, 4)], [(0,)], [(0, 1, 4), (2, 4, 5)]):
        sub = SimplicialComplex.from_simplices(kept)
        low_in_a = [
            s for s in k.simplices()
            if len(s) > 1 and s not in sub.witness and s[1:] in sub.witness
        ]
        assert bool(low_in_a) == (kept != [(0,)])  # as (1, 3, 4) for (3, 4)
        check_lazy_reduction(k, sub)


def test_lazy_reduction_builds_fewer_columns_than_it_reduces():
    shell = [q for q in product(range(3), repeat=3) if q != (1, 1, 1)]
    for g, groups in (
        (circulant(20, 4), [(1, ()), (1, ())] + [(0, ())] * 3),
        (digital_image(shell), [(1, ()), (0, ()), (1, ())] + [(0, ())] * 4),
    ):
        k = build_complex(g)
        built = []

        def counted(pos, n, cut=0):
            column = _boundary_builder(pos, n, cut)
            return lambda s: built.append(s) or column(s)

        with mock.patch.object(homology, "_boundary_builder", counted):
            assert groups_of(homology_integer(k)) == groups
        # Every column of degree n >= 1 is reduced but those the degree
        # above cleared; the reduction builds only the ones it reads.
        whole = pair_table_oracle(k.by_dimension)[0]
        cleared = sum(len(lows) for _, lows, _ in eager_reductions(whole, 0)[:-1])
        reduced = sum(len(level) for level in k.by_dimension[1:]) - cleared
        assert len(set(built)) == len(built) < reduced


@settings(max_examples=120, deadline=None)
@given(st.one_of(digraph_pairs(), closed_complexes(), projective_plane_pairs()))
def test_les_representatives_match_the_non_clearing_oracle(pair):
    k, sub = pair
    for p in FIELDS:
        streamed = streamed_complexes(k, sub, p)
        for (bases, table), got in zip(pair_parts(k, sub), streamed, strict=True):
            # The oracle's positions are in the bases, the complex's in X;
            # it goes bottom-up, the complexes top-down.
            where, oracle = positions(k, bases), field_complex_oracle(bases, p)
            expect = [
                [{basis[i]: c for i, c in rep.items()} for rep in reps]
                for basis, reps in zip(where, oracle)
            ][::-1]
            eager = [(c.span, c.reps) for _, c in field_complex(table, p)]
            assert [reps for _, reps in eager] == expect
            # The oracle streams the columns of X, A and X/A one degree at a
            # time; after each degree, its table and representatives are
            # those fed the whole maps.
            assert got == eager


def streamed_complexes(k, sub, p):
    """Per degree, top-down, the ``(span, reps)`` of the ``_FieldComplex``s
    of X, A and X/A that ``les_chain_oracle`` fills, in that order."""
    made = []

    class Recorded(_FieldComplex):
        def __init__(self, p):
            super().__init__(p)
            self.snapshots = []
            made.append(self.snapshots)

        def reduce(self, columns):
            super().reduce(columns)
            self.snapshots.append((self.span, self.reps))

    with mock.patch.object(oracles, "_FieldComplex", Recorded):
        les_chain_oracle(k.by_dimension, sub.witness, p)
    return made


def check_les_nodes(k, sub, p):
    """The check's nodes on (k, sub) are H_n(A), H_n(X), H_n(X,A), top-down,
    of the dimensions ``field_betti_oracle`` gives, with the ranks that
    exactness leaves from rank_in 0; H0(X,A) maps to 0."""
    x, a, r = (field_betti_oracle(bases, p) for bases in pair_bases(k, sub))
    expect, rank_in = [], 0
    for n in range(k.dim, -1, -1):
        for name, dim in (("A", a[n]), ("X", x[n]), ("X,A", r[n])):
            expect.append(NodeReport(f"H{n}({name})", dim, rank_in, dim - rank_in, True))
            rank_in = dim - rank_in
    assert rank_in == 0  # the ranks close the sequence at H0(X,A) -> 0
    report = les_exactness_check(k, sub, "q" if p is None else p)
    assert report.nodes == expect and report.exact
    return report.nodes


@settings(max_examples=100, deadline=None)
@given(st.one_of(digraph_pairs(), closed_complexes(), projective_plane_pairs()))
def test_les_nodes_match_the_dense_oracle(pair):
    for p in FIELDS:
        check_les_nodes(*pair, p)


def test_les_nodes_at_the_ends_of_the_pass():
    # The top degree starts with H_top(A), whose rank_in is 0, and the
    # sequence ends at H0(X,A), whose rank_out is 0; the empty complex has
    # no nodes.
    empty = SimplicialComplex.from_simplices([])
    point = SimplicialComplex.from_simplices([(0,)])
    octahedron = build_complex(circulant(6, 2))
    for p in FIELDS:
        assert check_les_nodes(empty, empty, p) == []
        assert check_les_nodes(point, empty, p) == [
            NodeReport("H0(A)", 0, 0, 0, True),
            NodeReport("H0(X)", 1, 0, 1, True),
            NodeReport("H0(X,A)", 1, 1, 0, True),
        ]
        assert check_les_nodes(point, point, p) == [
            NodeReport("H0(A)", 1, 0, 1, True),
            NodeReport("H0(X)", 1, 1, 0, True),
            NodeReport("H0(X,A)", 0, 0, 0, True),
        ]
        for sub in (empty, octahedron):
            nodes = check_les_nodes(octahedron, sub, p)
            assert [node.name for node in nodes[:4]] == [
                "H2(A)", "H2(X)", "H2(X,A)", "H1(A)"
            ]


def test_les_check_builds_each_column_of_x_once():
    # Two reductions feed the check, both on X in "A first" order: X
    # (``_filtered_ranks``), then X/A (``_reduce_degree``), degree by degree
    # over one face-position dict per degree.  Each builds a column at most
    # once, when it reads it; most are apparent pairs and never built.
    shell = [q for q in product(range(3), repeat=3) if q != (1, 1, 1)]
    for g, kept in ((circulant(20, 4), range(8)), (digital_image(shell), range(10))):
        k = build_complex(g)
        built = {"X": [], "X/A": []}
        reducing, faces = ["X"], []

        def counted(pos, n, cut=0):
            faces.append(pos)
            column = _boundary_builder(pos, n, cut)
            seen = built[reducing[0]]
            return lambda s: seen.append(s) or column(s)

        def step(name, run):
            def spy(*args):
                reducing[0] = name
                return run(*args)

            return spy

        with (
            mock.patch.object(homology, "_boundary_builder", counted),
            mock.patch.object(homology, "_filtered_ranks", step("X", _filtered_ranks)),
            mock.patch.object(homology, "_reduce_degree", step("X/A", _reduce_degree)),
        ):
            report = les_exactness_check(k, restrict_to(k, tuple(kept)), "q")
        assert report.exact
        simplices = sum(len(level) for level in k.by_dimension[1:])
        for columns in built.values():
            assert len(set(columns)) == len(columns) < simplices / 2
        # Both reductions of a degree read one face-position dict, made once.
        assert len(faces) == 2 * k.dim
        assert all(faces[i] is faces[i + 1] for i in range(0, len(faces), 2))
        assert len({id(pos) for pos in faces}) == k.dim


def a_first(k, sub):
    """X's levels with A's simplices first, each part lexicographic, and the
    number of A's simplices in each."""
    ordered = [
        [s for s in level if s in sub.witness]
        + [s for s in level if s not in sub.witness]
        for level in k.by_dimension
    ]
    return ordered, [len(level) for level in pair_bases(k, sub)[1]]


def check_filtered_ranks(k, sub, p):
    """``_filtered_ranks`` stores and clears what the reduction of the maps
    built whole does, A's columns first, and its ranks are dense ranks: of
    A's maps, of X's, and dim (B_n(X) in C_n(A)) = rank of X's map of degree
    n + 1 less that of its rows outside A."""
    levels, first = a_first(k, sub)
    caught = []

    def spy(columns, p, table=None, build=None):
        lows, core = _column_reduce(columns, p, table, build)
        caught.append((dict(table), lows, build))
        return lows, core

    size = len(levels) + 1
    rank_a, rank_x, lows_in_a = [0] * size, [0] * size, [0] * size

    def mask(size, lows):
        return bytearray(j not in lows for j in range(size))

    def degree(levels, first, n, pos, keep, p):
        # The mask passed down leaves the columns that are not lows of the
        # degree above.
        above = caught[-1][1] if n < len(levels) - 1 else ()
        assert keep == mask(len(levels[n]), above)
        ranks = _filtered_ranks(levels, first, n, pos, keep, p)
        rank_a[n], rank_x[n], lows_in_a[n - 1], kept = ranks
        assert kept == mask(len(levels[n - 1]), caught[-1][1])
        return ranks

    with (
        mock.patch.object(homology, "_column_reduce", spy),
        mock.patch.object(homology, "_filtered_ranks", degree),
        mock.patch.object(homology, "_reduce_degree", lambda *args: (0, (), ())),
    ):
        les_exactness_check(k, sub, "q" if p is None else p)
    eager, cleared = [], ()
    for n in range(len(levels) - 1, 0, -1):
        rows, table = dense_boundary(levels, n), {}
        for part in (range(first[n]), range(first[n], len(levels[n]))):
            columns = (
                {i: row[j] for i, row in enumerate(rows) if row[j]}
                for j in part if j not in cleared
            )
            lows = _column_reduce(columns, p, table)[0]
            eager.append((dict(table), lows))
        cleared = set(lows)
    assert [lows for _, lows, _ in caught] == [lows for _, lows in eager]
    for (stored, _, build), (expect, _) in zip(caught, eager):
        assert pending_built(stored, build, True) == expect
    a = pair_bases(k, sub)[1]
    for n in range(len(levels) + 1):
        rows = dense_boundary(levels, n)
        assert rank_a[n] == dense_rank(a, n, p)
        assert rank_x[n] == len(dense_rref(rows, p)[1])
        if n:
            off_a = rows[first[n - 1] :]
            assert lows_in_a[n - 1] == rank_x[n] - len(dense_rref(off_a, p)[1])


@settings(max_examples=80, deadline=None)
@given(st.one_of(digraph_pairs(), closed_complexes(), projective_plane_pairs()))
@example((OCTAHEDRON, restrict_to(OCTAHEDRON, (0, 1, 2))))
def test_filtered_reduction_matches_the_eager_one_and_dense_ranks(pair):
    for p in FIELDS:
        check_filtered_ranks(*pair, p)


@st.composite
def subcomplex_pairs(draw):
    """A random digraph's complex X, and A empty, A = X or the closure of a
    few of X's simplices, which need not be a full subcomplex."""
    k = draw(digraph_pairs())[0]
    which = draw(st.sampled_from(("empty", "all", "faces")))
    if which == "empty":
        return k, SimplicialComplex.from_simplices([])
    if which == "all":
        return k, k
    kept = draw(st.lists(st.sampled_from(list(k.simplices())), min_size=1, max_size=6))
    return k, SimplicialComplex.from_simplices(kept)


@settings(max_examples=80, deadline=None)
@given(subcomplex_pairs())
def test_a_first_order_matches_the_dense_oracles(pair):
    # Over Z, Q, Z_2 and Z_3: relative homology, the lazy reduction of X/A
    # in A-first order and the filtered reduction, and the nodes of the LES.
    check_pair(*pair)
    check_lazy_reduction(*pair)
    for p in FIELDS:
        check_filtered_ranks(*pair, p)
        check_les_nodes(*pair, p)


@pytest.mark.parametrize(
    "faces, outside",
    [([(0, 2)], (0, 2)), ([(0, 1, 2)], (0, 2)), ([(0, 1), (3,)], (3,))],
)
def test_a_subcomplex_outside_the_complex_is_refused(faces, outside):
    # The path 0 - 1 - 2; the first simplex of A, in A's order, that the
    # path lacks is named.
    k = SimplicialComplex.from_simplices([(0, 1), (1, 2)])
    sub = SimplicialComplex.from_simplices(faces)
    message = f"simplex {outside} of the subcomplex is not in the complex"
    for call in (lambda: relative_homology(k, sub), lambda: les_exactness_check(k, sub, "q")):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == message


@st.composite
def capped_pairs(draw):
    """A random digraph's complex, capped at a random dimension or not, and
    A empty, A = X or the full subcomplex on a random vertex subset."""
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)))
    g = random_digraph(n, p, draw(st.integers(0, 10**6)))
    k = build_complex(g, max_dim=draw(st.sampled_from((0, 1, 2, 3, None))))
    which = draw(st.sampled_from(("empty", "all", "subset")))
    if which == "empty":
        return k, restrict_to(k, ())
    if which == "all":
        return k, k
    return k, restrict_to(k, tuple(sorted(draw(st.sets(st.integers(0, n - 1))))))


@settings(max_examples=150, deadline=None)
@given(capped_pairs())
def test_les_nodes_match_the_chain_level_oracle(pair):
    # One-way edges, capped and uncapped complexes; each node's name, dim,
    # ranks and exactness equal those the oracle reads off the chain maps.
    k, sub = pair
    for p in (None, 2, 3, 1000003):
        report = les_exactness_check(k, sub, "q" if p is None else p)
        oracle = les_chain_oracle(k.by_dimension, sub.witness, p)
        assert report.nodes == oracle
        assert report.exact


def check_lows(columns, p):
    """The lows of ``columns`` are distinct, and the rows there alone have
    invariant factors all 1 (over Z, by the dense ``_diagonalize``) or full
    rank (over Q and Z_p, by ``dense_rref``), so they may clear the map
    below."""
    dense = [dict(col) for col in columns.values()]
    lows, core = _column_reduce(columns.values(), p)
    assert len(set(lows)) == len(lows)
    chosen = [[col.get(i, 0) for col in dense] for i in lows]
    if p == 0:
        assert _diagonalize(chosen) == (1,) * len(lows)
    else:
        assert not core
        assert len(dense_rref(chosen, p)[1]) == len(lows)
    return lows


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_matrices(), non_unit_low_matrices()))
def test_pivot_columns_are_unit_pivots(a):
    for p in RINGS:
        check_lows(column_table(a, p), p)


@settings(max_examples=60, deadline=None)
@given(digraph_pairs())
def test_boundary_pivot_columns_are_unit_pivots(pair):
    # Every map, top-down with clearing as in ``_reduce``: the lows of the
    # columns of a map are faces, whose columns the map below skips.
    for p in RINGS:
        for table in pair_tables(*pair):
            cleared = ()
            for n in range(len(table) - 1, -1, -1):
                assert set(cleared) <= set(table[n])
                if n:
                    kept = {j: dict(c) for j, c in table[n].items() if j not in cleared}
                    cleared = check_lows(kept, p)
