import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrhom import (
    InputError,
    build_complex,
    circulant,
    digital_image,
    f_vector,
    figure_digraph,
    homology_integer,
    random_digraph,
)
from oracles import (
    digital_image_oracle,
    find_isomorphism,
    induced_subgraph,
    is_symmetric,
    minimal_neighborhood,
    out_set,
)

S2_POINTS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def test_circulant_octahedron_adjacency():
    g = circulant(6, 2)
    assert is_symmetric(g)
    for v in range(6):
        missing = set(range(6)) - set(out_set(g, v))
        assert missing == {(v + 3) % 6}  # only the antipode


def test_circulant_zero_radius_is_loops_only():
    g = circulant(4, 0)
    assert list(g.edges()) == []


def test_circulant_five_cycle_homology():
    res = homology_integer(build_complex(circulant(5, 1)))
    assert tuple(h.betti for h in res) == (1, 1)
    assert all(g.torsion == () for g in res)


def test_circulant_validates_arguments():
    with pytest.raises(InputError):
        circulant(0, 0)
    with pytest.raises(InputError):
        circulant(4, 5)


def test_random_digraph_rejects_negative_vertex_count():
    with pytest.raises(InputError, match="n >= 0"):
        random_digraph(-2, 0.5, 0)
    assert random_digraph(0, 0.5, 0).n == 0


def test_circulant_is_vertex_transitive():
    g = circulant(7, 2)
    fvs = {
        f_vector(build_complex(induced_subgraph(g, minimal_neighborhood(g, x))[0]))
        for x in range(7)
    }
    assert len(fvs) == 1


def test_digital_sphere_matches_circulant():
    s2 = digital_image(S2_POINTS)
    assert is_symmetric(s2)
    assert find_isomorphism(s2, circulant(6, 2)) is not None
    assert tuple(h.betti for h in homology_integer(build_complex(s2))) == (1, 0, 1)


def test_digital_image_single_point():
    g = digital_image([(3, 7)])
    assert g.n == 1
    assert out_set(g, 0) == (0,)


def test_digital_image_grid_is_contractible():
    grid = digital_image([(x, y) for x in range(3) for y in range(3)])
    k = build_complex(grid)
    assert k.dim == 3  # unit squares with diagonals span 3-simplices
    res = homology_integer(k, reduced=True)
    assert all(g.is_zero() for g in res)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-2, 2)] * d), unique=True, max_size=30
            )
        ),
        # Few points in many coordinates; one wide coordinate makes some
        # pairs adjacent and some not.
        st.integers(5, 24).flatmap(
            lambda d: st.lists(
                st.tuples(st.integers(-2, 2), *[st.integers(0, 1)] * (d - 1)),
                unique=True,
                max_size=6,
            )
        ),
    )
)
@example([(0,) * 24])
@example([(0,) * 24, (1,) + (0,) * 23, (1,) * 24, (2,) + (1,) * 23])
def test_digital_image_lookup_matches_pair_loop(points):
    g, oracle = digital_image(points), digital_image_oracle(points)
    assert g == oracle
    assert g.labels == oracle.labels


def test_digital_image_of_one_point_allocates_no_offsets():
    # 3^13 - 1 neighbour offsets of one 13-coordinate point would take
    # about 240 MB to find that it has no neighbour.
    tracemalloc.start()
    try:
        g = digital_image([(0,) * 13])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 1 and list(g.edges()) == []
    assert peak < 5 * 2**20


def test_digital_image_validation():
    with pytest.raises(InputError):
        digital_image([(0, 0), (0, 0)])
    with pytest.raises(InputError):
        digital_image([(0, 0), (0, 1, 2)])


def test_figure_fixture_edges_and_fvectors():
    left = figure_digraph("left")
    assert sorted(left.edges()) == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    assert f_vector(build_complex(left)) == (4, 5, 2)

    middle = figure_digraph("middle")
    assert sorted(middle.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]
    assert f_vector(build_complex(middle)) == (4, 5)

    right = figure_digraph("right")
    assert sorted(right.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert f_vector(build_complex(right)) == (4, 4)
    assert tuple(h.betti for h in homology_integer(build_complex(right))) == (1, 1)

    assert left.labels == ("A", "B", "C", "D")
    with pytest.raises(InputError):
        figure_digraph("top")


def test_random_digraph_edge_probability_extremes():
    g0 = random_digraph(5, 0, 1)
    assert list(g0.edges()) == []

    g1 = random_digraph(5, 1, 1)
    assert len(list(g1.edges())) == 20
    res = homology_integer(build_complex(g1), reduced=True)
    assert all(g.is_zero() for g in res)


def test_random_digraph_snapshot():
    g = random_digraph(6, 0.4, 42)
    assert sorted(g.edges()) == [
        (0, 2), (0, 3), (0, 4), (1, 3), (1, 5),
        (2, 0), (2, 3), (2, 4), (3, 1), (3, 5),
        (4, 2), (4, 3), (5, 0), (5, 1), (5, 2),
    ]


def test_random_digraph_determinism_and_validation():
    assert random_digraph(7, 0.3, 9) == random_digraph(7, 0.3, 9)
    assert random_digraph(7, 0.3, 9) != random_digraph(7, 0.3, 10)
    with pytest.raises(InputError):
        random_digraph(3, 1.5, 0)
