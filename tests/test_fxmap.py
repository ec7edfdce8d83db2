import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrhom import (
    Digraph,
    InputError,
    SampleReport,
    build_complex,
    circulant,
    continuity_certificate,
    figure_digraph,
    random_digraph,
    sampled_continuity_check,
)
from dvrhom import fxmap
from dvrhom.fxmap import SampleFailure
from oracles import (
    RealizationPoint,
    barycenter,
    brute_force_certificate,
    carrier_point,
    evaluate_fx,
    point_in,
    tie_set,
    witness_dict,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_realization_point_validation():
    RealizationPoint((0, 1), (HALF, HALF))
    with pytest.raises(InputError):
        RealizationPoint((0, 1), (HALF, HALF, 0))
    with pytest.raises(InputError):
        RealizationPoint((0, 1), (Fraction(3, 4), Fraction(3, 4)))
    with pytest.raises(InputError):
        RealizationPoint((0, 1), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(InputError):
        RealizationPoint((0, 0), (HALF, HALF))


def test_tie_set_examples():
    assert tie_set(RealizationPoint((4,), (1,))) == (4,)
    assert tie_set(RealizationPoint((0, 1, 2), (THIRD, THIRD, THIRD))) == (0, 1, 2)
    assert tie_set(RealizationPoint((0, 1, 2), (HALF, HALF, 0))) == (0, 1)


def test_evaluate_fx_barycenter_takes_last_witness_vertex():
    p = RealizationPoint((5, 3, 8), (THIRD, THIRD, THIRD))
    assert evaluate_fx(p) == 8


def test_evaluate_fx_unique_maximum():
    p = RealizationPoint(
        (0, 1, 2), (Fraction(6, 10), Fraction(3, 10), Fraction(1, 10))
    )
    assert evaluate_fx(p) == 0


def test_two_witness_midpoint_discrepancy():
    # Midpoint of the edge {x, y}: on the edge carried with witness (y, x)
    # the value is x, inside the triangle with witness (x, y, z) it is y.
    x, y, z = 0, 1, 2
    edge_point = RealizationPoint((y, x), (HALF, HALF))
    assert evaluate_fx(edge_point) == x
    triangle_point = RealizationPoint((x, y, z), (HALF, HALF, 0))
    assert evaluate_fx(triangle_point) == y


def test_vertex_points_are_fixed():
    k = build_complex(circulant(6, 2))
    for v in range(6):
        assert evaluate_fx(point_in(k, (v,), (1,))) == v


def test_evaluate_lands_in_tie_set_with_edges_to_it():
    import random

    rng = random.Random(12)
    for i in range(10):
        g = random_digraph(6, 0.5, 300 + i)
        k = build_complex(g)
        simplices = list(k.simplices())
        witness = witness_dict(k)
        for _ in range(30):
            s = simplices[rng.randrange(len(simplices))]
            w = witness[s]
            weights = [rng.randint(1, 5) for _ in w]
            total = sum(weights)
            p = RealizationPoint(w, tuple(Fraction(a, total) for a in weights))
            value = evaluate_fx(p)
            tie = tie_set(p)
            assert value in tie
            assert all(g.has_edge(v, value) for v in tie)


def test_barycenter_and_point_in_validate_membership():
    k = build_complex(figure_digraph("left"))
    b = barycenter(k, (0, 1, 3))
    assert evaluate_fx(b) == 3
    with pytest.raises(InputError):
        point_in(k, (1, 2), (HALF, HALF))  # B-C is not an edge


def test_carrier_point_pushes_to_minimal_face():
    k = build_complex(circulant(6, 2))
    p = point_in(k, (0, 1, 2), (HALF, HALF, 0))
    q = carrier_point(k, p)
    assert sorted(q.witness) == [0, 1]
    assert sum(q.coords) == 1
    interior = point_in(k, (0, 1, 2), (HALF, Fraction(1, 4), Fraction(1, 4)))
    assert carrier_point(k, interior) is interior


def test_face_local_evaluation_agrees_for_symmetric_witnesses():
    # Symmetric digraph: canonical witnesses are ascending everywhere, so a
    # face point evaluates identically on the face and inside the triangle.
    k = build_complex(circulant(6, 2))
    witness = witness_dict(k)
    for tri in k.by_dimension[2]:
        w = witness[tri]
        p_triangle = RealizationPoint(w, (HALF, HALF, 0))
        p_face = carrier_point(k, p_triangle)
        assert evaluate_fx(p_triangle) == evaluate_fx(p_face)


def test_continuity_certificate_vertex_only_complex():
    g = Digraph.from_edge_list(3, [])
    rep = continuity_certificate(build_complex(g), g)
    assert rep.passed
    assert rep.checks == 3


def test_continuity_certificate_figure_left():
    g = figure_digraph("left")
    rep = continuity_certificate(build_complex(g), g)
    assert rep.passed


def test_continuity_certificate_random_campaign():
    for i in range(30):
        g = random_digraph(2 + i % 6, (0.2, 0.4, 0.7)[i % 3], 400 + i)
        assert continuity_certificate(build_complex(g), g).passed


def test_continuity_certificate_detects_corrupted_witness():
    g = figure_digraph("left")
    k = build_complex(g)
    # (3, 1, 0) is not a valid ordering: no D->B edge
    k.orders[2][k.by_dimension[2].index((0, 1, 3))] = (3, 1, 0)
    rep = continuity_certificate(k, g)
    assert not rep.passed
    assert rep.counterexample is not None
    simplex, tie, vertex, target = rep.counterexample
    assert simplex == (0, 1, 3)
    assert not g.has_edge(vertex, target)


def _certificate_cases(g, rng):
    """The built complex, a copy with some witnesses shuffled, a foreign digraph."""
    yield build_complex(g), g
    shuffled = build_complex(g)
    for level, orders in zip(shuffled.by_dimension, shuffled.orders):
        for i, s in enumerate(level):
            if len(s) > 1 and rng.random() < 0.3:
                w = list(s)
                rng.shuffle(w)
                orders[i] = tuple(w)
    yield shuffled, g
    other = random_digraph(g.n, rng.choice((0.3, 0.6, 0.9)), rng.randrange(10**6))
    yield build_complex(g), other


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8), st.sampled_from((0.3, 0.6, 0.9)), st.integers(0, 10**6)
)
def test_continuity_certificate_matches_subset_walk(n, p, seed):
    for k, h in _certificate_cases(random_digraph(n, p, seed), random.Random(seed)):
        assert continuity_certificate(k, h) == brute_force_certificate(k, h)


def test_continuity_certificate_subset_walk_reaches_failures():
    # Some failures sit past the first simplex of a level above the edges,
    # where the report's counts add whole levels and part of one.
    rng = random.Random(0)
    failed = 0
    inside = 0
    for i in range(60):
        g = random_digraph(2 + i % 7, (0.3, 0.6, 0.9)[i % 3], i)
        for k, h in _certificate_cases(g, rng):
            rep = continuity_certificate(k, h)
            assert rep == brute_force_certificate(k, h)
            if not rep.passed:
                failed += 1
                s = rep.counterexample[0]
                inside += len(s) > 2 and k.by_dimension[len(s) - 1].index(s) > 0
    assert failed >= 20 and inside > 0


def test_continuity_certificate_counts_subsets_of_simplices():
    # ``checks`` counts the subsets of each simplex, whatever its witness
    # holds: an edge whose witness runs through a third vertex, with every
    # in-edge the witness prefix needs, still counts 3.
    g = Digraph.from_edge_list(4, list(combinations(range(4), 2)))
    k = build_complex(g)
    k.orders[1][-1] = (1, 2, 3)
    rep = continuity_certificate(k, g)
    assert rep == brute_force_certificate(k, g)
    assert rep.passed and rep.checks == 4 * 1 + 6 * 3 + 4 * 7 + 15


def test_sampled_check_zero_failures_on_symmetric_fixture():
    g = circulant(6, 2)
    k = build_complex(g)
    rep = sampled_continuity_check(k, g, 2000, Fraction(1, 100), seed=1)
    assert rep.failure_count == 0
    assert rep.failure_rate == 0


def test_sampled_check_is_deterministic():
    g = figure_digraph("left")
    k = build_complex(g)
    rep1 = sampled_continuity_check(k, g, 500, Fraction(1, 10), seed=9)
    rep2 = sampled_continuity_check(k, g, 500, Fraction(1, 10), seed=9)
    assert rep1 == rep2


def test_sampled_check_failures_vanish_at_smaller_radius():
    # At a coarse radius one-way edges can flip; every failure must come
    # with a smaller radius at which the same direction passes.
    g = figure_digraph("left")
    k = build_complex(g)
    rep = sampled_continuity_check(k, g, 4000, Fraction(1, 4), seed=3)
    for failure in rep.failures:
        assert failure.pass_delta is not None
        assert failure.pass_delta < Fraction(1, 4)


def test_sampled_check_barycenter_perturbations_stay_in_neighborhood():
    g = Digraph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    k = build_complex(g)
    b = barycenter(k, (0, 1, 2))
    base = evaluate_fx(b)
    assert base == 2
    # every transfer of mass between two coordinates keeps an edge to 2
    amounts = (Fraction(1, 100), Fraction(1, 7), Fraction(1, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for a in amounts:
                coords = list(b.coords)
                coords[i] -= a
                coords[j] += a
                if any(c < 0 for c in coords):
                    continue
                moved = carrier_point(k, RealizationPoint(b.witness, coords))
                assert g.has_edge(evaluate_fx(moved), base)


def test_sampled_check_counts_only_checked_samples():
    # Samples drawn on a vertex cannot be perturbed, so they are not checked.
    g = Digraph.from_edge_list(3, [])
    rep = sampled_continuity_check(build_complex(g), g, 50, Fraction(1, 10), seed=0)
    assert rep.samples == 50
    assert rep.checked == 0
    assert rep.failure_rate == 0

    g = figure_digraph("left")
    k = build_complex(g)
    vertices = len(k.by_dimension[0])
    total = sum(len(level) for level in k.by_dimension)
    rep = sampled_continuity_check(k, g, 4000, Fraction(1, 4), seed=3)
    skipped = rep.samples - rep.checked
    assert abs(skipped / rep.samples - vertices / total) < 0.05
    assert rep.failure_count > 0
    assert rep.failure_rate == Fraction(rep.failure_count, rep.checked)


def test_sampled_check_rejects_negative_sample_count():
    g = circulant(3, 1)
    k = build_complex(g)
    with pytest.raises(InputError):
        sampled_continuity_check(k, g, -5, Fraction(1, 10), seed=0)
    assert sampled_continuity_check(k, g, 0, Fraction(1, 10), seed=0).checked == 0


def test_sampled_check_rejects_bad_delta():
    g = circulant(3, 1)
    k = build_complex(g)
    with pytest.raises(InputError):
        sampled_continuity_check(k, g, 10, 0, seed=0)


def fraction_sampled_check(k, g, samples, delta, seed, seen=None):
    """Reference sampler: every sample in exact ``Fraction`` coordinates.

    Draws from the generator in the same order as the package and evaluates
    each point through the reference ``RealizationPoint``, ``carrier_point``
    and ``evaluate_fx`` of ``oracles``.  If ``seen`` is a set, the names of the cases a
    checked sample falls in are added to it: ``"i"`` and ``"j"`` when the
    coordinate that loses or gains mass holds the base image, ``"tie"`` when
    two coordinates share the top weight, ``"drained"`` when the move
    empties coordinate i, and ``"lift-before"`` and ``"lift-after"`` when a
    move that keeps the carrier and takes nothing from the base image lifts
    j exactly to the top weight, j before or after the base image.
    """
    import random

    delta = Fraction(delta)
    rng = random.Random(seed)
    all_simplices = list(k.simplices())
    witness = witness_dict(k)
    checked = 0
    failures = []
    for idx in range(samples):
        s = all_simplices[rng.randrange(len(all_simplices))]
        w = witness[s]
        weights = [rng.randint(1, 1000) for _ in w]
        total = sum(weights)
        coords = tuple(Fraction(wt, total) for wt in weights)
        base_value = evaluate_fx(RealizationPoint(w, coords))
        if len(w) == 1:
            continue
        checked += 1
        i, j = rng.sample(range(len(w)), 2)
        amount = min(delta * rng.randint(0, 1000) / 2000, coords[i])
        if seen is not None:
            top = max(coords)
            held = w.index(base_value)
            cases = {"i": i == held, "j": j == held, "tie": coords.count(top) > 1}
            cases["drained"] = amount == coords[i]
            lift = 0 < amount < coords[i] and i != held and coords[j] + amount == top
            cases["lift-before"] = lift and j < held
            cases["lift-after"] = lift and j > held
            seen.update(name for name, hit in cases.items() if hit)

        def value_at(a):
            moved = list(coords)
            moved[i] -= a
            moved[j] += a
            return evaluate_fx(carrier_point(k, RealizationPoint(w, moved)))

        perturbed_value = value_at(amount)
        if g.has_edge(perturbed_value, base_value):
            continue
        pass_delta = None
        shrink = amount
        for _ in range(80):
            shrink /= 2
            if g.has_edge(value_at(shrink), base_value):
                pass_delta = 2 * shrink
                break
        failures.append(SampleFailure(idx, s, base_value, perturbed_value, pass_delta))
    return SampleReport(samples, delta, seed, checked, tuple(failures))


def test_sampled_check_matches_fraction_reference():
    # Random digraphs, plus many draws on a fixture with one-way edges; seed 4
    # there draws tied top weights and fully drained coordinates that fail.
    cases = [
        (random_digraph(3 + i % 5, (0.3, 0.5, 0.7, 0.9)[i % 4], 700 + i), 80, i)
        for i in range(16)
    ]
    cases.append((figure_digraph("left"), 2000, 4))
    failures = 0
    for g, samples, seed in cases:
        k = build_complex(g)
        for delta in (Fraction(1, 10**6), Fraction(1, 3), 1, 2):
            rep = sampled_continuity_check(k, g, samples, delta, seed)
            assert rep == fraction_sampled_check(k, g, samples, delta, seed)
            failures += rep.failure_count
    assert failures > 0


# Digraphs of up to 9 vertices: drawn edge lists, whose one-way edges make
# most failures, and seeded random digraphs of three densities.
_SMALL_DIGRAPHS = st.one_of(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n
        ).map(lambda edges: Digraph.from_edge_list(n, edges))
    ),
    st.builds(
        random_digraph,
        st.integers(1, 9),
        st.sampled_from((0.3, 0.6, 0.9)),
        st.integers(0, 10**6),
    ),
)
_RADII = st.one_of(
    st.sampled_from(
        (Fraction(1, 10**6), Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(2))
    ),
    st.fractions(min_value=0, max_value=3, max_denominator=10**4).filter(bool),
)
# Each of these draws, among its 150 samples, a coordinate i that holds the
# base image, a j that holds it, two tied top weights and a drained i.  The
# fourth and fifth also fail a sampler that breaks a tie the wrong way:
# between two top weights, or (on the transitive tournament) when a move
# lifts j exactly to the top weight after the base image.  The last lifts j
# exactly to the top weight before the base image, a tie that only a
# foreign digraph shows, such as the reverse of the one built from.
_SAMPLE_EXAMPLES = [
    (figure_digraph("left"), 7, Fraction(2)),
    (random_digraph(9, 0.6, 1), 2, Fraction(1)),
    (
        Digraph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)]),
        7,
        Fraction(7, 5),
    ),
    (
        Digraph.from_edge_list(
            9, [(0, 3), (3, 3), (1, 6), (6, 1), (8, 3), (3, 7), (1, 3), (1, 8), (2, 3)]
        ),
        3437908509,
        Fraction(2),
    ),
    (
        Digraph.from_edge_list(4, list(combinations(range(4), 2))),
        3,
        Fraction(1075, 11312),
    ),
    (
        Digraph.from_edge_list(4, list(combinations(range(4), 2))),
        3,
        Fraction(10250, 112413),
    ),
]


def _with_examples(cases):
    def decorate(test):
        for g, seed, delta in cases:
            test = example(g=g, seed=seed, delta=delta)(test)
        return test

    return decorate


@settings(max_examples=60, deadline=None)
@given(g=_SMALL_DIGRAPHS, seed=st.integers(0, 2**32), delta=_RADII)
@_with_examples(_SAMPLE_EXAMPLES)
def test_sampled_check_matches_fraction_reference_on_drawn_digraphs(g, seed, delta):
    # The sampler's rule for a move that keeps the carrier reads only the
    # base maximum and the two moved coordinates, unless i held the maximum;
    # a drained i sends the point to a face.  Every report must be exact.
    k = build_complex(g)
    rep = sampled_continuity_check(k, g, 150, delta, seed)
    assert rep == fraction_sampled_check(k, g, 150, delta, seed)


def test_sample_examples_cover_every_case():
    lifts = set()
    for g, seed, delta in _SAMPLE_EXAMPLES:
        seen = set()
        fraction_sampled_check(build_complex(g), g, 150, delta, seed, seen)
        assert {"i", "j", "tie", "drained"} <= seen, (seed, seen)
        lifts |= seen
    assert {"lift-before", "lift-after"} <= lifts


def test_sampled_check_matches_fraction_reference_on_reversed_digraphs():
    # Checked against its digraph's reverse, a witness's earlier vertices
    # need not reach its later ones, so an image that moves back along the
    # witness can fail: a sampler that gave a lift before the base image to
    # w[j] fails where the reference does not.
    failures = 0
    for g, seed, delta in _SAMPLE_EXAMPLES:
        k = build_complex(g)
        h = Digraph.from_edge_list(g.n, [(v, u) for u, v in g.edges()])
        rep = sampled_continuity_check(k, h, 150, delta, seed)
        assert rep == fraction_sampled_check(k, h, 150, delta, seed)
        failures += rep.failure_count
    assert failures > 0


def _count_face_lookups(monkeypatch, faces=None):
    """The list of faces the sampler looks up, which it does only when a
    move drains a coordinate and the point goes to a face.  Each lookup is
    answered in ``faces`` when given, else in the sampled complex."""
    lookups = []
    face_witness = fxmap._face_witness

    def counted(k, face):
        lookups.append(face)
        return face_witness(k if faces is None else faces, face)

    monkeypatch.setattr(fxmap, "_face_witness", counted)
    return lookups


def test_sampled_check_matches_fraction_reference_on_dense_and_tiny_complexes(
    monkeypatch,
):
    # Dense shapes have about 1000 simplices, so the simplex draw rejects
    # 10- and 11-bit values, and witnesses of up to 8 vertices.  Complexes
    # of exactly 1, 2 and 4 simplices make the simplex count 1 or a power
    # of two, where rejection is heaviest.  1/10^6 never fails, 1/3 fails
    # across one-way edges and 2 also drains coordinates onto faces.
    cases = [(random_digraph(14, 0.65, s), 400, s) for s in (1, 2, 3)]
    cases += [
        (Digraph.from_edge_list(1, []), 200, 5),
        (Digraph.from_edge_list(2, []), 200, 6),
        (Digraph.from_edge_list(3, [(0, 1)]), 600, 7),
    ]
    counts = set()
    failures = 0
    pushes = dict.fromkeys((Fraction(1, 10**6), Fraction(1, 3), 2), 0)
    lookups = _count_face_lookups(monkeypatch)
    for g, samples, seed in cases:
        k = build_complex(g)
        counts.add(len(list(k.simplices())))
        for delta in pushes:
            before = len(lookups)
            rep = sampled_continuity_check(k, g, samples, delta, seed)
            assert rep == fraction_sampled_check(k, g, samples, delta, seed)
            failures += rep.failure_count
            pushes[delta] += len(lookups) - before
    assert {1, 2, 4} <= counts and max(counts) > 1024
    assert failures > 0
    assert pushes[Fraction(1, 10**6)] == 0 and pushes[2] > 0


def test_sampled_check_matches_fraction_reference_past_the_sample_pool(
    monkeypatch,
):
    # random.sample(range(d), 2) draws j from a pool for d <= 21 and by
    # redrawing from range(d) past that.  A transitive tournament on 22
    # vertices has every vertex set as a simplex with its ascending
    # witness; only a few of them are offered to the sampler, in ``k``,
    # and ``faces`` holds them with the facets a drained coordinate leads
    # to, level by level.
    n = 22
    g = Digraph.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    drawn = [tuple(range(n)), tuple(range(21)), tuple(range(1, n)), (3, 9)]
    found = set(drawn)
    for s in drawn:
        found.update(combinations(s, len(s) - 1))
    levels = [sorted(f for f in found if len(f) == size) for size in range(1, n + 1)]
    faces = SimpleNamespace(
        simplices=lambda: iter(drawn), by_dimension=levels, orders=levels
    )
    k = SimpleNamespace(orders=[drawn])
    lookups = _count_face_lookups(monkeypatch, faces)
    failures = 0
    for delta in (Fraction(1, 10**6), Fraction(1, 3), 2):
        rep = sampled_continuity_check(k, g, 400, delta, seed=11)
        assert rep == fraction_sampled_check(faces, g, 400, delta, seed=11)
        failures += rep.failure_count
    assert failures > 0 and len(lookups) > 0
