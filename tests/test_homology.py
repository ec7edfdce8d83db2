import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrhom import (
    Digraph,
    HomologyGroup,
    InputError,
    Presentation,
    SimplicialComplex,
    abelianization,
    build_complex,
    circulant,
    digital_image,
    f_vector,
    figure_digraph,
    homology_field,
    homology_integer,
    invariant_factors,
    les_exactness_check,
    pi1_presentation,
    random_digraph,
    relative_homology,
)
from dvrhom import homology, matrices
from oracles import (
    IntegerMatrix,
    columns,
    edge_path_oracle,
    euler_characteristic,
    matmul,
    restrict_to,
    smith_normal_form,
    tietze_oracle,
    transpose,
)

# Minimal 6-vertex triangulation of the real projective plane.
RP2_FACES = [
    (0, 1, 4),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 4),
    (0, 3, 5),
    (1, 2, 3),
    (1, 2, 5),
    (1, 3, 4),
    (2, 4, 5),
    (3, 4, 5),
]


def rp2():
    return SimplicialComplex.from_simplices(RP2_FACES)


def boundary_matrix(k, n):
    """The n-th boundary map of ``k``, n >= 0, with its columns built by
    ``_boundary_builder``, the boundary path of every command.  Degree 0
    and degrees above the top give zero maps of the right shape."""
    levels = k.by_dimension
    size = len(levels[n]) if n < len(levels) else 0
    a = IntegerMatrix(len(levels[n - 1]) if 0 < n <= len(levels) else 0, size)
    if n and size:
        column = homology._boundary_builder(homology._positions(levels[n - 1]), n)
        a.entries = {
            (i, j): v for j, s in enumerate(levels[n]) for i, v in column(s).items()
        }
    return a


def corpus(count, max_n=7, seed0=4000):
    out = []
    for i in range(count):
        out.append(random_digraph(2 + i % (max_n - 1), (0.2, 0.4, 0.7)[i % 3], seed0 + i))
    return out


def test_boundary_of_triangle():
    k = SimplicialComplex.from_simplices([(0, 1, 2)])
    m = boundary_matrix(k, 2)
    assert m.rows == 3 and m.cols == 1
    # rows are ordered (0,1), (0,2), (1,2)
    assert [m[(i, 0)] for i in range(3)] == [1, -1, 1]


def test_boundary_degree_zero_is_zero_map():
    k = build_complex(circulant(6, 2))
    m = boundary_matrix(k, 0)
    assert m.rows == 0 and m.cols == 6 and m.is_zero()


def test_boundary_above_top_dimension():
    k = SimplicialComplex.from_simplices([(0, 1)])
    m = boundary_matrix(k, 2)
    assert m.rows == 1 and m.cols == 0  # rows = one 1-simplex, no 2-simplices
    m = boundary_matrix(k, 5)
    assert m.rows == 0 and m.cols == 0


def test_boundary_octahedron_edge_columns_sum_to_zero():
    k = build_complex(circulant(6, 2))
    m = boundary_matrix(k, 1)
    assert m.rows == 6 and m.cols == 12
    cols = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, []).append(v)
    assert all(sorted(vals) == [-1, 1] for vals in cols.values())


def test_boundary_squared_is_zero():
    for g in corpus(15):
        k = build_complex(g)
        for n in range(1, len(k.by_dimension) + 1):
            prod = matmul(boundary_matrix(k, n), boundary_matrix(k, n + 1))
            assert prod.is_zero()


def test_octahedron_d2_invariant_factors():
    k = build_complex(circulant(6, 2))
    sf = smith_normal_form(boundary_matrix(k, 2))
    assert sf.d == (1,) * 7


def test_homology_integer_examples():
    single = build_complex(Digraph.from_edge_list(1, []))
    assert [g.betti for g in homology_integer(single)] == [1]

    octa = homology_integer(build_complex(circulant(6, 2)))
    assert tuple(h.betti for h in octa) == (1, 0, 1)
    assert all(g.torsion == () for g in octa)

    middle = homology_integer(build_complex(figure_digraph("middle")))
    assert tuple(h.betti for h in middle) == (1, 2)


def test_homology_reduced_flag():
    octa = homology_integer(build_complex(circulant(6, 2)), reduced=True)
    assert tuple(h.betti for h in octa) == (0, 0, 1)
    empty = homology_integer(build_complex(Digraph.from_edge_list(0, [])))
    assert len(empty) == 0


def test_homology_truncation_marker():
    # The marker stays on the capped complex, whose top degree keeps the
    # cycles that the missing triangles would bound.
    k = build_complex(circulant(6, 2), max_dim=1)
    assert k.truncated
    assert [h.betti for h in homology_integer(k)] == [1, 7]


def test_euler_characteristic_consistency():
    for g in corpus(20):
        k = build_complex(g)
        res = homology_integer(k)
        assert euler_characteristic(f_vector(k)) == sum(
            (-1) ** n * h.betti for n, h in enumerate(res)
        )


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    return random_digraph(n, p, draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
def test_betti_numbers_agree_across_coefficients(g):
    k = build_complex(g)
    integer = tuple(h.betti for h in homology_integer(k))
    rational = homology_field(k, "q")
    assert tuple(rational) == integer
    for p in (2, 3):
        assert all(b >= b_q for b, b_q in zip(homology_field(k, p), rational))
    assert euler_characteristic(f_vector(k)) == sum(
        (-1) ** n * b for n, b in enumerate(rational)
    )


def test_homology_field_examples():
    k = build_complex(circulant(6, 2))
    assert homology_field(k, "q") == [1, 0, 1]
    with pytest.raises(InputError):
        homology_field(k, 6)
    with pytest.raises(InputError):
        homology_field(k, 1)


def test_prime_fields_are_checked_exactly():
    # Trial division is the oracle below 20000.
    for n in range(-3, 20000):
        trial = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        assert matrices._is_prime(n) == trial
    # Strong pseudoprimes to every base up to 31 and up to 37, and others.
    # The limit, 1287836182261 * 2575672364521, fools every base up to 41,
    # so homology_field rejects it for its size.
    for n in (3825123056546413051, 399165290221 * 798330580441,
              2**61 + 1, 561, 3215031751):
        assert not matrices._is_prime(n)
    # Primes near 2^61, 2^64, 10^18 and 10^24 (also passed by 64 random
    # Miller-Rabin bases).
    for p in (2**61 - 1, 2**64 - 59, 10**18 + 3, 10**18 + 9, 10**24 + 7):
        assert matrices._is_prime(p)


def test_prime_field_limits_and_non_integers():
    k = build_complex(circulant(6, 2))
    assert homology_field(k, 2**61 - 1) == [1, 0, 1]
    assert homology_field(k, 10**24 + 7) == [1, 0, 1]
    for spec in (10**400, matrices._PRIME_LIMIT, 2**89 - 1, 2.5, 3.0, "3", None):
        with pytest.raises(InputError):
            homology_field(k, spec)
    with pytest.raises(InputError, match="not an integer"):
        les_exactness_check(k, k, 2.5)
    with pytest.raises(InputError, match="p < "):
        les_exactness_check(k, k, 10**400)


def test_homology_field_reduced_lowers_degree_zero():
    k = build_complex(circulant(6, 2))
    assert homology_field(k, "q", reduced=True) == [0, 0, 1]
    assert homology_field(k, 2, reduced=True) == [0, 0, 1]
    empty = build_complex(Digraph.from_edge_list(0, []))
    assert homology_field(empty, 3, reduced=True) == []


def test_field_betti_matches_integer_betti_over_q():
    for g in corpus(15):
        k = build_complex(g)
        assert homology_field(k, "q") == [h.betti for h in homology_integer(k)]


def test_projective_plane_fixture():
    k = rp2()
    res = homology_integer(k)
    assert tuple(h.betti for h in res) == (1, 0, 0)
    assert [g.torsion for g in res] == [(), (2,), ()]
    assert homology_field(k, "q") == [1, 0, 0]
    assert homology_field(k, 2) == [1, 1, 1]
    assert homology_field(k, 3) == [1, 0, 0]


def test_universal_coefficients_count_on_torsion():
    k = rp2()
    integer = homology_integer(k)
    for p in (2, 3, 5):
        mod_p = homology_field(k, p)
        for n, b in enumerate(mod_p):
            t_here = sum(1 for t in integer[n].torsion if t % p == 0)
            t_below = (
                sum(1 for t in integer[n - 1].torsion if t % p == 0) if n else 0
            )
            assert b == integer[n].betti + t_here + t_below


def test_relative_homology_trivial_cases():
    k = build_complex(circulant(6, 2))
    full = relative_homology(k, k)
    assert all(g.is_zero() for g in full)

    empty_sub = SimplicialComplex([], [])
    assert [
        (g.betti, g.torsion) for g in relative_homology(k, empty_sub)
    ] == [(g.betti, g.torsion) for g in homology_integer(k)]


def test_pair_of_complexes_makes_no_witnesses():
    g = random_digraph(9, 0.5, 3)
    k, a = build_complex(g), build_complex(g, 1)
    relative_homology(k, a)
    les_exactness_check(k, a, "q")
    for x in (k, a):
        assert "orders" not in vars(x) and "witness" not in vars(x)


def test_relative_homology_filled_square_pair():
    k = build_complex(figure_digraph("left"))
    sub = restrict_to(k, (1, 2, 3))
    res = relative_homology(k, sub)
    assert all(g.is_zero() for g in res)
    assert les_exactness_check(k, sub, "q").exact


def test_relative_homology_octahedron_minus_triangle():
    k = build_complex(circulant(6, 2))
    sub = restrict_to(k, (0, 1, 2))
    res = relative_homology(k, sub)
    assert [(g.betti, g.torsion) for g in res] == [(0, ()), (0, ()), (1, ())]


def test_relative_homology_rejects_non_subcomplex():
    k = build_complex(figure_digraph("right"))
    alien = SimplicialComplex.from_simplices([(0, 3)])
    with pytest.raises(InputError, match=r"\(0, 3\)"):
        relative_homology(k, alien)


def test_les_trivial_pair_is_exact():
    k = build_complex(circulant(6, 2))
    rep = les_exactness_check(k, k, "q")
    assert rep.exact
    assert all(n.dim == 0 for n in rep.nodes if "X,A" in n.name)


def test_les_octahedron_with_closed_triangle():
    k = build_complex(circulant(6, 2))
    sub = restrict_to(k, (0, 1, 2))
    rep = les_exactness_check(k, sub, "q")
    assert rep.exact
    by_name = {n.name: n for n in rep.nodes}
    # H2(X) -> H2(X,A) is injective; A is contractible so H1(A) = 0
    assert by_name["H2(X)"].dim == 1
    assert by_name["H2(X)"].rank_out == 1
    assert by_name["H2(X,A)"].dim == 1
    assert by_name["H1(A)"].dim == 0


def test_les_rejects_integer_coefficients():
    k = build_complex(circulant(6, 2))
    with pytest.raises(InputError):
        les_exactness_check(k, k, "z")


def test_les_exactness_with_torsion_fixture():
    k = rp2()
    sub = restrict_to(k, (0, 1, 4))
    for field in ("q", 2, 3):
        assert les_exactness_check(k, sub, field).exact


def test_les_random_campaign():
    rng = random.Random(31)
    for i in range(25):
        g = random_digraph(2 + i % 6, (0.2, 0.4, 0.7)[i % 3], 8100 + i)
        k = build_complex(g)
        verts = [s[0] for s in k.by_dimension[0]]
        a = [v for v in verts if rng.random() < 0.5] or [verts[0]]
        sub = restrict_to(k, a)
        for field in ("q", 2):
            assert les_exactness_check(k, sub, field).exact


@st.composite
def les_pairs(draw):
    """A digraph's complex and a full subcomplex, or RP^2 with a few cells
    glued on and a subcomplex spanned by random simplices (torsion)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        p = draw(st.sampled_from((0.3, 0.5, 0.7)))
        k = build_complex(random_digraph(n, p, draw(st.integers(0, 10**6))))
        subset = draw(st.sets(st.integers(0, n - 1), max_size=n))
        return k, restrict_to(k, tuple(sorted(subset)))
    extra = draw(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=2)
    )
    k = SimplicialComplex.from_simplices(RP2_FACES + extra)
    kept = draw(st.lists(st.sampled_from(list(k.simplices())), max_size=5))
    return k, SimplicialComplex.from_simplices(kept)


def _even_torsion(group):
    return sum(1 for t in group.torsion if t % 2 == 0)


_K420 = build_complex(random_digraph(14, 0.5, 1))  # 420 simplices


@settings(max_examples=100, deadline=None)
@given(les_pairs())
@example((_K420, restrict_to(_K420, tuple(range(6)))))
def test_les_dimensions_match_the_homology_of_each_space(pair):
    # Over Q the relative Betti numbers are those of relative_homology; over
    # Z_2 universal coefficients add the even torsion of degrees n and n - 1.
    k, sub = pair
    relative = relative_homology(k, sub)
    rel_z2 = [
        g.betti + _even_torsion(g) + (_even_torsion(relative[n - 1]) if n else 0)
        for n, g in enumerate(relative)
    ]
    for field, rel in (("q", [g.betti for g in relative]), (2, rel_z2)):
        rep = les_exactness_check(k, sub, field)
        assert rep.exact
        dims = {node.name: node.dim for node in rep.nodes}
        expect = {
            "X": homology_field(k, field),
            "A": homology_field(sub, field),
            "X,A": rel,
        }
        for space, values in expect.items():
            values = values + [0] * (k.dim + 1 - len(values))
            assert [dims[f"H{n}({space})"] for n in range(k.dim + 1)] == values


def test_pi1_tree_is_trivial():
    path = Digraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    pres = pi1_presentation(build_complex(path), 0)
    assert pres.generators == ()
    assert pres.relators == ()


def test_pi1_hollow_square_is_z():
    pres = pi1_presentation(build_complex(figure_digraph("right")), 0)
    assert len(pres.generators) == 1
    assert pres.relators == ()
    assert abelianization(pres) == HomologyGroup(1, ())


def test_pi1_octahedron_abelianization_trivial():
    pres = pi1_presentation(build_complex(circulant(6, 2)), 0)
    ab = abelianization(pres)
    assert ab.betti == 0 and ab.torsion == ()


def test_pi1_errors():
    two = Digraph.from_edge_list(2, [])
    with pytest.raises(InputError, match="disconnected"):
        pi1_presentation(build_complex(two), 0)
    with pytest.raises(InputError):
        pi1_presentation(build_complex(Digraph.from_edge_list(0, [])), 0)
    with pytest.raises(InputError, match="basepoint"):
        pi1_presentation(build_complex(Digraph.from_edge_list(1, [])), 5)


def test_pi1_refuses_a_complex_capped_below_dimension_2():
    # Capped at 1, the complex keeps all 10 non-tree edges and none of the
    # triangles that kill them: the group would read free of rank 10.
    g = random_digraph(6, 0.9, 1)
    assert abelianization(pi1_presentation(build_complex(g), 0)) == HomologyGroup(0)
    for cap in (0, 1):
        with pytest.raises(InputError, match="2-skeleton"):
            pi1_presentation(build_complex(g, max_dim=cap), 0)
    capped = build_complex(g, max_dim=2)
    assert capped.truncated
    assert pi1_presentation(capped, 0) == pi1_presentation(build_complex(g), 0)
    # A cap that removes nothing leaves the complex untruncated.
    path = build_complex(Digraph.from_edge_list(3, [(0, 1), (1, 2)]), max_dim=1)
    assert not path.truncated
    assert pi1_presentation(path, 0).generators == ()


def test_abelianization_examples():
    assert abelianization(Presentation((), ())) == HomologyGroup(0, ())
    assert abelianization(Presentation(("a",), ((1, 1),))) == HomologyGroup(0, (2,))
    assert abelianization(Presentation(("a", "b"), ())) == HomologyGroup(2, ())
    assert abelianization(Presentation((), ((),))) == HomologyGroup(0, ())
    # Exponent sums that cancel leave no entry; an unused generator is free.
    commutator = (1, 2, -1, -2)
    assert abelianization(Presentation(("a", "b"), (commutator,))) == HomologyGroup(2)
    assert abelianization(
        Presentation(("a", "b"), (commutator, (1, 1)))
    ) == HomologyGroup(1, (2,))
    assert abelianization(
        Presentation(("a", "b", "c"), ((1, 1), (3, -1, 3, 3, 1)))
    ) == HomologyGroup(1, (6,))

    middle = build_complex(figure_digraph("middle"))
    pres = pi1_presentation(middle, 0)
    assert abelianization(pres) == HomologyGroup(2, ())


@pytest.mark.parametrize(
    "pres, letter",
    [
        (Presentation(("a", "b"), ((0,),)), 0),
        (Presentation(("a",), ((2,),)), 2),
        (Presentation(("a",), ((1, -2),)), -2),
        (Presentation((), ((1,),)), 1),
        (Presentation(("a",), (("a",),)), "'a'"),
    ],
)
def test_abelianization_refuses_a_letter_naming_no_generator(pres, letter):
    with pytest.raises(InputError, match=rf"relator 0 .* letter {letter},"):
        abelianization(pres)


def test_abelianized_pi1_matches_h1():
    checked = 0
    for i in range(40):
        g = random_digraph(2 + i % 6, (0.3, 0.5, 0.8)[i % 3], 9000 + i)
        k = build_complex(g)
        try:
            pres = pi1_presentation(k, 0)
        except InputError:
            continue  # disconnected sample
        h1 = homology_integer(k)[1] if len(k.by_dimension) > 1 else HomologyGroup(0)
        assert abelianization(pres) == h1
        checked += 1
    assert checked >= 20


words = st.lists(
    st.integers(1, 6).flatmap(lambda g: st.sampled_from((g, -g))), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(words, max_size=7))
@example(2, [[1], [2, 1, -2]])  # the kill leaves 2 -2, which cancels: 2 has no holder
@example(2, [[2], [1, 2, 1]])  # the kill leaves 1 1, which holds no singleton
@example(3, [[1], [2], [3, 1, 2]])  # the last relator is rewritten twice while queued
@example(3, [[1], [1, 2, 1, 3]])  # the killed generator occurs twice in a holder
def test_tietze_reduce_matches_oracle_on_random_relators(ngen, relators):
    symbols = [f"s{i}" for i in range(ngen)]
    relators = [[x for x in w if abs(x) <= ngen] for w in relators]
    words = [*map(homology._cyclic_reduce, relators)]
    assert homology._tietze_moves(symbols, words) == tietze_oracle(symbols, relators)


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
@example(circulant(13, 3))  # kills and substitutions, one generator left
@example(circulant(20, 4))
@example(  # the 3x3x3 digital shell
    digital_image([p for p in itertools.product(range(3), repeat=3) if p != (1, 1, 1)])
)
def test_tietze_reduce_matches_oracle_on_complex_relators(g):
    calls = []
    real = homology._tietze_moves

    def record(symbols, relators):
        calls.append((list(symbols), [list(w) for w in relators]))
        return real(symbols, relators)

    with mock.patch.object(homology, "_tietze_moves", record):
        try:
            pi1_presentation(build_complex(g), 0)
        except InputError:
            return  # disconnected
    ((symbols, relators),) = calls
    # pi1 hands the triangle words to _tietze_moves without cyclic reduction:
    # every one has distinct generators, so it is its own cyclic reduction.
    for word in relators:
        assert len({abs(x) for x in word}) == len(word)
        assert homology._cyclic_reduce(word) == word
    assert real(symbols, relators) == tietze_oracle(symbols, relators)


@settings(max_examples=80, deadline=None)
@given(small_digraphs(), st.booleans())
def test_edge_path_relators_match_oracle(g, last):
    # The generators and triangle words handed to the Tietze moves are those
    # read off a breadth-first tree and the triangles by definition.
    calls = []
    real = homology._tietze_moves

    def record(symbols, relators):
        calls.append((list(symbols), [list(w) for w in relators]))
        return real(symbols, relators)

    k = build_complex(g)
    basepoint = g.n - 1 if last else 0
    with mock.patch.object(homology, "_tietze_moves", record):
        try:
            pi1_presentation(k, basepoint)
        except InputError:
            return  # disconnected
    assert calls == [edge_path_oracle(k, basepoint)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(words, max_size=7))
@example(3, [[1], [2], [3, 1, 2]])  # the last word is rewritten twice
@example(2, [[1, 2], [-1, 2, 2]])  # a substitution rewrites the second word
def test_tietze_moves_leave_the_callers_lists_alone(ngen, relators):
    symbols = [f"s{i}" for i in range(ngen)]
    relators = [[x for x in w if abs(x) <= ngen] for w in relators]
    reduced = [homology._cyclic_reduce(w) for w in relators]
    def reduce_then_move(symbols, words):
        return homology._tietze_moves(symbols, [*map(homology._cyclic_reduce, words)])

    for moves, words in (
        (reduce_then_move, relators),
        (homology._tietze_moves, reduced),
    ):
        before = [list(w) for w in words]
        symbols_before = list(symbols)
        result = moves(symbols, words)
        assert words == before and symbols == symbols_before
        # A second call on the same lists gives the same answer.
        assert moves(symbols, words) == result == tietze_oracle(symbols, relators)


def test_invariant_factors_match_full_snf():
    # abelianization hands over the transpose of the relation matrix, so the
    # transpose must give the same factors.
    rng = random.Random(3)
    for _ in range(20):
        m_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n_cols)] for _ in range(m_rows)]
        m = IntegerMatrix.from_rows(rows)
        d = smith_normal_form(m).d
        assert invariant_factors(columns(m)) == d
        assert invariant_factors(columns(transpose(m))) == d


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), st.sets(st.integers(0, 7)), st.sampled_from((None, 1, 2)))
def test_homology_pair_les_and_pi1_of_a_digraph_make_no_witnesses(g, subset, max_dim):
    # The witness orderings are made on first read, and none of these reads
    # them; a refused pi1 reads none either.
    k = build_complex(g, max_dim)
    subset = sorted(v for v in subset if v < g.n)
    homology_integer(k)
    homology_field(k, "q")
    homology_field(k, 3)
    relative_homology(k, subset)
    les_exactness_check(k, subset, 2)
    try:
        pi1_presentation(k, 0)
    except InputError:
        pass
    assert "witness" not in vars(k) and "orders" not in vars(k)
