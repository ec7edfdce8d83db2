import pytest

from dvrhom import (
    InputError,
    circulant,
    figure_digraph,
    from_edge_list,
    is_interior_cover,
    random_digraph,
)
from dvrhom.digraph import _MAX_VERTICES
from oracles import (
    closure_of,
    induced_subgraph,
    interior_by_neighborhoods,
    interior_of,
    is_symmetric,
    minimal_neighborhood,
)


def random_corpus(count, max_n=6, seed0=100):
    ps = (0.2, 0.4, 0.7)
    return [
        random_digraph(2 + (i % (max_n - 1)), ps[i % 3], seed0 + i)
        for i in range(count)
    ]


def test_from_edge_list_adds_loops():
    g = from_edge_list(2, [])
    assert g.out_set(0) == (0,)
    assert g.out_set(1) == (1,)
    assert list(g.edges()) == []


def test_vertex_counts_above_the_bound_are_refused():
    # One vertex above 2^16 is refused before any bitmask is allocated.
    n = _MAX_VERTICES + 1
    assert n == 2**16 + 1
    for build in (
        lambda: from_edge_list(n, []),
        lambda: circulant(n, 1),
        lambda: random_digraph(n, 0.5, 0),
    ):
        with pytest.raises(InputError, match="65537 vertices exceed the limit"):
            build()


def test_from_edge_list_figure_left():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert g == figure_digraph("left")
    assert g.out_set(0) == (0, 1, 2, 3)


def test_from_edge_list_directed_cycle():
    g = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    assert g.out_set(0) == (0, 1)
    assert g.in_set(0) == (0, 2)


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(InputError, match=r"\(5, 9\)"):
        from_edge_list(3, [(0, 1), (5, 9)])


def test_from_edge_list_absorbs_duplicates_and_loops():
    g = from_edge_list(3, [(0, 1), (0, 1), (1, 1)])
    assert g == from_edge_list(3, [(0, 1)])


def test_closure_of_empty_set():
    assert closure_of(figure_digraph("left"), []) == ()


def test_closure_of_examples():
    assert closure_of(figure_digraph("left"), [0]) == (0, 1, 2, 3)
    cycle = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    assert closure_of(cycle, [0, 1]) == (0, 1, 2)


def test_closure_axioms_on_random_digraphs():
    import random

    rng = random.Random(7)
    for g in random_corpus(25):
        n = g.n
        assert closure_of(g, []) == ()
        for _ in range(5):
            a = [v for v in range(n) if rng.random() < 0.5]
            b = [v for v in range(n) if rng.random() < 0.5]
            ca = set(closure_of(g, a))
            cb = set(closure_of(g, b))
            assert set(a) <= ca
            assert set(closure_of(g, set(a) | set(b))) == ca | cb


def test_interior_whole_space():
    g = circulant(5, 1)
    assert interior_of(g, range(5)) == (0, 1, 2, 3, 4)


def test_interior_examples():
    assert interior_of(figure_digraph("left"), [3]) == ()
    assert interior_of(circulant(6, 2), [0, 1, 2, 3, 4]) == (2,)


def test_interior_duality_and_oracle():
    import random

    rng = random.Random(11)
    for g in random_corpus(25):
        for _ in range(5):
            a = [v for v in range(g.n) if rng.random() < 0.6]
            ia = interior_of(g, a)
            assert set(ia) <= set(a)
            # duality against closure of the complement
            comp = [v for v in range(g.n) if v not in set(a)]
            assert set(ia) == set(range(g.n)) - set(closure_of(g, comp))
            assert ia == interior_by_neighborhoods(g, a)
            # the package's interiors, read through is_interior_cover
            covered = set(ia) | set(interior_of(g, comp))
            assert is_interior_cover(g, [a, comp]) == (covered == set(range(g.n)))


def test_minimal_neighborhood_examples():
    assert minimal_neighborhood(from_edge_list(1, []), 0) == (0,)
    assert minimal_neighborhood(figure_digraph("left"), 3) == (0, 1, 2, 3)
    assert minimal_neighborhood(circulant(6, 2), 0) == (0, 1, 2, 4, 5)


def test_minimal_neighborhood_is_a_neighborhood_and_minimal():
    from itertools import combinations

    for g in random_corpus(10, max_n=6):
        for x in range(g.n):
            u = minimal_neighborhood(g, x)
            assert x in u
            assert x in interior_of(g, u)
            # any other neighborhood of x contains U_x
            for size in range(1, g.n + 1):
                for v in combinations(range(g.n), size):
                    if x in interior_of(g, v):
                        assert set(u) <= set(v)


def test_is_interior_cover():
    left = figure_digraph("left")
    assert is_interior_cover(left, [range(4)])
    assert not is_interior_cover(left, [[3]])
    for g in random_corpus(20):
        family = [minimal_neighborhood(g, x) for x in range(g.n)]
        assert is_interior_cover(g, family)


def test_induced_subgraph_whole():
    g = circulant(6, 2)
    assert induced_subgraph(g, range(6)) == (g, (0, 1, 2, 3, 4, 5))


def test_induced_subgraph_examples():
    sub, verts = induced_subgraph(figure_digraph("left"), [1, 2, 3])
    assert verts == (1, 2, 3)
    assert sorted(sub.edges()) == [(0, 2), (1, 2)]  # B->D, C->D re-indexed
    assert sub.labels == ("B", "C", "D")

    sub2, _ = induced_subgraph(circulant(6, 2), [0, 1, 3])
    assert sorted(sub2.edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_induced_subgraph_rejects_empty():
    with pytest.raises(InputError):
        induced_subgraph(circulant(3, 1), [])


def test_induced_subgraph_preserves_symmetry():
    for g in random_corpus(10):
        sub, _ = induced_subgraph(g, range(g.n))
        assert is_symmetric(sub) == is_symmetric(g)


def test_is_symmetric():
    assert is_symmetric(from_edge_list(3, []))
    assert is_symmetric(circulant(6, 2))
    assert not is_symmetric(figure_digraph("left"))


def test_equality_ignores_labels():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert g == figure_digraph("left")
    assert hash(g) == hash(figure_digraph("left"))
