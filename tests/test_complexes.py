import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrhom import (
    Digraph,
    InputError,
    SimplicialComplex,
    build_complex,
    circulant,
    digital_image,
    f_vector,
    figure_digraph,
    random_digraph,
)
from dvrhom import documents
from oracles import (
    brute_force_dvr,
    brute_force_witness,
    check_cone,
    check_full_subcomplex,
    clique_complex_faces,
    closure_oracle,
    eager_complex_oracle,
    greedy_complex_oracle,
    induced_subgraph,
    is_simplex,
    is_symmetric,
    map_complex,
    minimal_neighborhood,
    restrict_to,
    witness_dict,
)

S2_POINTS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def test_is_simplex_singleton():
    g = Digraph.from_edge_list(3, [])
    assert is_simplex(g, [2]) == (2,)


def test_is_simplex_figure_left_triangle():
    g = figure_digraph("left")
    assert is_simplex(g, [0, 1, 3]) == (0, 1, 3)


def test_is_simplex_strict_cycle_has_no_witness():
    g = Digraph.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    assert is_simplex(g, [0, 1, 2]) is None
    assert (0, 1, 2) not in brute_force_dvr(g)


def test_is_simplex_rejects_bad_input():
    g = Digraph.from_edge_list(3, [])
    with pytest.raises(InputError):
        is_simplex(g, [])
    with pytest.raises(InputError):
        is_simplex(g, [0, 7])


def test_build_complex_figure_fixtures():
    left = build_complex(figure_digraph("left"))
    assert f_vector(left) == (4, 5, 2)
    assert left.by_dimension[1] == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    assert left.by_dimension[2] == [(0, 1, 3), (0, 2, 3)]

    middle = build_complex(figure_digraph("middle"))
    # no triangles: the f-vector stops at dimension 1, i.e. (4, 5, 0)
    assert f_vector(middle) == (4, 5)
    assert (0, 3) in middle  # the diagonal D->A edge is present

    right = build_complex(figure_digraph("right"))
    assert f_vector(right) == (4, 4)


def test_build_complex_octahedron():
    k = build_complex(circulant(6, 2))
    assert f_vector(k) == (6, 12, 8)
    assert set(k.by_dimension[2]) == set(brute_force_dvr(circulant(6, 2))) - set(
        k.by_dimension[0]
    ) - set(k.by_dimension[1])


def test_f_vector_small_cases():
    assert f_vector(build_complex(Digraph.from_edge_list(1, []))) == (1,)
    assert f_vector(build_complex(Digraph.from_edge_list(0, []))) == ()
    assert f_vector(build_complex(digital_image(S2_POINTS))) == (6, 12, 8)


def test_face_closure_and_witness_validity():
    for seed in range(8):
        g = random_digraph(6, 0.45, seed)
        k = build_complex(g)
        witness = witness_dict(k)
        for s in k.simplices():
            for size in range(1, len(s) + 1):
                for face in combinations(s, size):
                    assert face in k
            w = witness[s]
            assert tuple(sorted(w)) == s
            assert all(
                g.has_edge(w[i], w[j])
                for i in range(len(w))
                for j in range(i + 1, len(w))
            )


def test_matches_brute_force_enumeration():
    for seed in range(12):
        g = random_digraph(2 + seed % 6, (0.2, 0.5, 0.8)[seed % 3], 50 + seed)
        assert set(build_complex(g).simplices()) == brute_force_dvr(g)


def test_symmetric_case_matches_clique_complex():
    for seed in range(8):
        g = random_digraph(10, 0.5, 900 + seed)
        sym_edges = [(u, v) for u, v in g.edges() if g.has_edge(v, u)]
        sg = Digraph.from_edge_list(10, sym_edges + [(v, u) for u, v in sym_edges])
        assert is_symmetric(sg)
        assert set(build_complex(sg).simplices()) == clique_complex_faces(sg)


def test_max_dim_cap_and_truncation_flag():
    g = circulant(6, 2)
    k0 = build_complex(g, max_dim=0)
    assert f_vector(k0) == (6,)
    assert k0.truncated

    k1 = build_complex(g, max_dim=1)
    assert f_vector(k1) == (6, 12)
    assert k1.truncated

    k2 = build_complex(g, max_dim=2)
    assert f_vector(k2) == (6, 12, 8)
    assert not k2.truncated  # nothing exists above dimension 2

    kfull = build_complex(g)
    assert not kfull.truncated


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8, 0.95)))
    return random_digraph(n, p, draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
def test_greedy_witness_is_the_lexicographically_least_ordering(g):
    for size in range(1, g.n + 1):
        for s in combinations(range(g.n), size):
            assert is_simplex(g, s) == brute_force_witness(g, s)
    k = build_complex(g)
    assert set(k.simplices()) == brute_force_dvr(g)
    witness = witness_dict(k)
    for s in k.simplices():
        assert witness[s] == brute_force_witness(g, s)


@settings(max_examples=60, deadline=None)
@given(small_digraphs())
def test_truncation_flag_matches_uncapped_complex(g):
    full = build_complex(g)
    for max_dim in range(g.n + 1):
        capped = build_complex(g, max_dim)
        assert capped.by_dimension == full.by_dimension[: max_dim + 1]
        assert capped.truncated == (full.dim > max_dim)
        capped_witness, full_witness = witness_dict(capped), witness_dict(full)
        assert all(capped_witness[s] == full_witness[s] for s in capped.simplices())


def test_determinism():
    g = random_digraph(7, 0.5, 3)
    k1 = build_complex(g)
    k2 = build_complex(g)
    assert k1 == k2
    assert witness_dict(k1) == witness_dict(k2)


def test_check_full_subcomplex_whole_and_examples():
    g = circulant(6, 2)
    assert check_full_subcomplex(g, range(6))
    assert check_full_subcomplex(g, [0, 1, 2])
    sub = build_complex(induced_subgraph(g, [0, 1, 2])[0])
    assert f_vector(sub) == (3, 3, 1)


def test_check_full_subcomplex_campaign():
    rng = random.Random(5)
    for i in range(50):
        g = random_digraph(2 + i % 6, (0.2, 0.4, 0.7)[i % 3], 600 + i)
        a = [v for v in range(g.n) if rng.random() < 0.6] or [0]
        assert check_full_subcomplex(g, a)


def test_check_cone_examples():
    assert check_cone(Digraph.from_edge_list(3, []), 0)
    assert check_cone(circulant(6, 2), 0)
    middle = figure_digraph("middle")
    assert minimal_neighborhood(middle, 3) == (1, 2, 3)
    assert check_cone(middle, 3)


def test_check_cone_campaign():
    for i in range(30):
        g = random_digraph(2 + i % 6, (0.2, 0.4, 0.7)[i % 3], 700 + i)
        for x in range(g.n):
            assert check_cone(g, x)


def test_map_complex_identity_and_constant():
    g = figure_digraph("left")
    ident = map_complex(list(range(4)), g, g)
    assert ident.all_images_present
    assert all(src == img for src, img in ident.entries)
    assert ident.degenerate == ()

    const = map_complex([2, 2, 2, 2], g, g)
    assert const.all_images_present
    assert all(img == (2,) for _, img in const.entries)
    # every positive-dimensional simplex collapses
    assert len(const.degenerate) == 5 + 2


def test_map_complex_quotient_onto_triangle():
    source = circulant(6, 2)
    target = circulant(3, 1)
    rep = map_complex([v % 3 for v in range(6)], source, target)
    assert rep.all_images_present
    triangles = [img for src, img in rep.entries if len(src) == 3]
    assert len(triangles) == 8
    assert all(img == (0, 1, 2) for img in triangles)


def test_map_complex_rejects_non_morphism():
    g = figure_digraph("left")
    h = figure_digraph("right")  # no A->D edge in the target
    with pytest.raises(InputError, match="morphism"):
        map_complex([0, 1, 2, 3], g, h)


@pytest.mark.parametrize(
    "f, message",
    [
        ([0, 1], "vertex 2 has no image"),
        ({0: 0}, "vertex 1 has no image"),
        ([0, 1, 2, "x"], "vertex 3 maps to 'x'"),
        ([0, 1, 2, 3.5], "vertex 3 maps to 3.5"),
        ([0, 1, 2, 4], "vertex 3 maps to 4"),
    ],
)
def test_map_complex_names_the_vertex_of_a_bad_map(f, message):
    c = circulant(4, 1)
    with pytest.raises(InputError, match=message):
        map_complex(f, c, c)


@pytest.mark.parametrize("f", [5, None])
def test_map_complex_refuses_a_map_that_is_no_sequence_or_mapping(f):
    c = circulant(4, 1)
    with pytest.raises(InputError, match="neither a sequence nor a mapping"):
        map_complex(f, c, c)


def test_restrict_to_gives_full_subcomplex():
    k = build_complex(circulant(6, 2))
    sub = restrict_to(k, (0, 1, 2))
    assert f_vector(sub) == (3, 3, 1)
    assert all(set(s) <= {0, 1, 2} for s in sub.simplices())


def test_from_simplices_closes_faces():
    k = SimplicialComplex.from_simplices([(0, 1, 2)])
    assert f_vector(k) == (3, 3, 1)
    assert witness_dict(k)[(0, 1, 2)] == (0, 1, 2)
    with pytest.raises(InputError):
        SimplicialComplex.from_simplices([()])


def test_a_complex_given_neither_orders_nor_links_has_its_sorted_tuples():
    levels = [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]
    k = SimplicialComplex([list(level) for level in levels])
    assert k == SimplicialComplex.from_simplices([(0, 1), (1, 2)])
    assert k.orders == levels
    assert k.orders[1] is not k.by_dimension[1]
    assert SimplicialComplex([]).orders == []


# Unsorted vertex lists, with repeated vertices, repeated faces and singletons.
_FACES = st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_FACES, st.data())
def test_top_down_closure_matches_subset_oracle(faces, data):
    simplices = [s for level in closure_oracle(faces)[0] for s in level]
    chosen = data.draw(st.sets(st.sampled_from(simplices))) if faces else ()
    witnesses = {s: data.draw(st.permutations(s)) for s in chosen}
    faces = [tuple(f) if i % 2 else f for i, f in enumerate(faces)]
    k = SimplicialComplex.from_simplices(faces, witnesses=witnesses)
    assert (k.by_dimension, witness_dict(k)) == closure_oracle(faces, witnesses)


def _closure_or_message(close, faces, witnesses):
    try:
        return close(faces, witnesses)
    except InputError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=5),
    st.dictionaries(
        st.lists(st.integers(0, 4), min_size=1, max_size=3).map(sorted).map(tuple),
        st.lists(st.integers(0, 4), max_size=3).map(tuple),
        max_size=3,
    ),
)
def test_closure_errors_match_subset_oracle(faces, witnesses):
    def top_down(faces, witnesses):
        k = SimplicialComplex.from_simplices(faces, witnesses=witnesses)
        return k.by_dimension, witness_dict(k)

    assert _closure_or_message(top_down, faces, witnesses) == _closure_or_message(
        closure_oracle, faces, witnesses
    )


@pytest.mark.parametrize(
    "faces, witnesses, message",
    [
        ([(0, 1), ()], None, "simplices must be nonempty"),
        ([(1, 0)], {(0, 2): (2, 0)}, "witness given for missing simplex (0, 2)"),
        ([(1, 0)], {(0, 1): (0, 0)}, "witness (0, 0) is not an ordering of (0, 1)"),
    ],
)
def test_closure_error_messages(faces, witnesses, message):
    for close in (SimplicialComplex.from_simplices, closure_oracle):
        with pytest.raises(InputError) as exc:
            close(faces, witnesses=witnesses)
        assert str(exc.value) == message


def test_from_faces_by_size_takes_a_covering_witness_dict_as_given():
    faces = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    reversed_orders = [[(0,), (1,), (2,)], [(1, 0), (2, 0), (2, 1)], [(2, 1, 0)]]
    # Every face given, in sorted order and in reverse order.
    for given in (faces, faces[::-1]):
        by_size = {}
        for s in given:
            by_size.setdefault(len(s), {})[s] = s[::-1]
        k = SimplicialComplex.from_faces_by_size(by_size)
        assert k.orders == reversed_orders
    # The missing facets are added, each as its own witness.
    partial = {(0, 2): (2, 0), (0, 1, 2): (1, 0, 2)}
    k = SimplicialComplex.from_faces_by_size({len(s): {s: w} for s, w in partial.items()})
    assert k.orders == [[(0,), (1,), (2,)], [(0, 1), (2, 0), (1, 2)], [(1, 0, 2)]]
    assert witness_dict(k) == {**{s: s for s in faces}, **partial}
    assert k.by_dimension == [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]


@settings(max_examples=60, deadline=None)
@given(
    small_digraphs(),
    st.integers(0, 4),
    st.sets(st.integers(0, 6)),
    st.integers(0, 10**6),
)
def test_witness_keys_are_exactly_the_simplices(g, max_dim, subset, seed):
    rng = random.Random(seed)
    full = build_complex(g)
    complexes = (
        full,
        build_complex(g, max_dim),
        SimplicialComplex.from_simplices(full.by_dimension[-1]),
        SimplicialComplex.from_simplices(
            full.simplices(), witnesses=witness_dict(full)
        ),
        restrict_to(full, subset),
        # Fewer than dim + 1 vertices hold no top simplex.
        restrict_to(full, range(full.dim)),
        SimplicialComplex([], []),
    )
    for k in complexes:
        assert list(map(len, k.orders)) == list(map(len, k.by_dimension))
        assert set(witness_dict(k)) == set(k.simplices())
        assert not k.by_dimension or k.by_dimension[-1]
        for s in k.simplices():
            perm = list(s)
            rng.shuffle(perm)
            assert tuple(perm) in k


def _membership_complexes():
    """The complex of circulant(6, 1), the 6-cycle, made three ways: built,
    read back from its ``complex`` document, and closed from its edges."""
    built = build_complex(circulant(6, 1))
    text = json.dumps(documents._complex_doc(built))
    return {
        "built": built,
        "document": documents._read_document(text)[1],
        "from_simplices": SimplicialComplex.from_simplices(built.by_dimension[-1]),
    }


# Vertices are the ints 0..n-1; other vertex types are outside the contract.
MEMBERSHIP = [
    ((0,), True),
    ((0, 1), True),
    ((1, 0), True),
    (frozenset({0, 1}), True),
    ((True,), True),
    ((1.0,), True),
    ((), False),
    ((0, 0), False),
    ((9,), False),
    ((-1,), False),
    ({0, 1, 2}, False),  # longer than the top level, the edges
]


@pytest.mark.parametrize("made", ["built", "document", "from_simplices"])
@pytest.mark.parametrize("verts, expected", MEMBERSHIP, ids=repr)
def test_membership_contract(made, verts, expected):
    k = _membership_complexes()[made]
    assert k.dim == 1
    assert (verts in k) is expected


def _assert_matches_greedy_oracle_at_every_cap(g):
    full = greedy_complex_oracle(g)
    for max_dim in (None, *range(len(full[0]) + 1)):
        k = build_complex(g, max_dim)
        levels, witness, truncated = (
            full if max_dim is None else greedy_complex_oracle(g, max_dim)
        )
        assert k.by_dimension == levels
        assert witness_dict(k) == witness
        assert k.truncated == truncated


@settings(max_examples=30, deadline=None)
@given(
    st.integers(8, 16),
    st.sampled_from((0.3, 0.5, 0.7, 0.9)),
    st.integers(0, 10**6),
)
def test_face_lookup_builder_matches_greedy_peel_oracle(n, p, seed):
    _assert_matches_greedy_oracle_at_every_cap(random_digraph(n, p, seed))


def test_face_lookup_builder_matches_greedy_peel_oracle_on_fixed_shapes():
    shell = [q for q in product(range(3), repeat=3) if q != (1, 1, 1)]
    for g in (circulant(20, 4), digital_image(shell)):
        _assert_matches_greedy_oracle_at_every_cap(g)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 12),
    st.sampled_from((0.3, 0.5, 0.7, 0.9)),
    st.integers(0, 10**6),
    st.sampled_from((None, 0, 1, 2, 3)),
    st.booleans(),
)
def test_witnesses_made_on_first_read_match_the_eager_builder(
    n, p, seed, max_dim, dict_first
):
    # Each ordered pair is drawn on its own, so most edges are one-way and
    # witnesses are not the sorted tuples.  Either view may be read first.
    g = random_digraph(n, p, seed)
    levels, witness, truncated = eager_complex_oracle(g, max_dim)
    k = build_complex(g, max_dim)
    if dict_first:
        assert witness_dict(k) == witness
    assert k.by_dimension == levels
    assert k.orders == [[witness[s] for s in level] for level in levels]
    assert witness_dict(k) == witness
    assert k.truncated == truncated
