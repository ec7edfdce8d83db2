"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  The random corpora are seeded, so every run checks the same
instances.
"""

import io
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dvrhom import (
    HomologyGroup,
    abelianization,
    build_complex,
    circulant,
    continuity_certificate,
    digital_image,
    f_vector,
    figure_digraph,
    homology_field,
    homology_integer,
    les_exactness_check,
    pi1_presentation,
    random_digraph,
    sampled_continuity_check,
)
from dvrhom.cli import run_command
from dvrhom.digraph import InputError
from oracles import (
    IntegerMatrix,
    RealizationPoint,
    brute_force_dvr,
    check_cone,
    check_full_subcomplex,
    evaluate_fx,
    find_isomorphism,
    induced_subgraph,
    matmul,
    minimal_neighborhood,
    restrict_to,
    smith_normal_form,
)
from test_homology import boundary_matrix

S2_POINTS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
PS = (0.2, 0.4, 0.7)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {description} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def corpus():
    """201 seeded random digraphs with n <= 8 and p in {0.2, 0.4, 0.7}."""
    return [
        random_digraph(2 + i % 7, PS[i % 3], 1000 + i) for i in range(201)
    ]


@pytest.fixture(scope="module")
def corpus_complexes(corpus):
    return [(g, build_complex(g)) for g in corpus]


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    return run_command(argv, stdin=io.StringIO(stdin_text), stdout=out), out.getvalue()


def test_criterion_1_octahedron_fixture():
    with criterion(1, "circulant(6,2) homology is (Z, 0, Z) via the CLI"):
        start = time.perf_counter()
        _, gen_text = run_cli(["gen", "circulant", "--n", "6", "--m", "2"])
        report, _ = run_cli(["homology", "--coeff", "z"], stdin_text=gen_text)
        elapsed = time.perf_counter() - start
        assert report["groups"] == [
            {"dim": 0, "betti": 1, "torsion": []},
            {"dim": 1, "betti": 0, "torsion": []},
            {"dim": 2, "betti": 1, "torsion": []},
        ]
        assert elapsed < 1.0


def test_criterion_2_digital_sphere():
    with criterion(2, "digital sphere is isomorphic to circulant(6,2), same homology"):
        start = time.perf_counter()
        sphere = digital_image(S2_POINTS)
        assert find_isomorphism(sphere, circulant(6, 2)) is not None
        hs = homology_integer(build_complex(sphere))
        hc = homology_integer(build_complex(circulant(6, 2)))
        assert [(g.betti, g.torsion) for g in hs] == [
            (g.betti, g.torsion) for g in hc
        ]
        assert tuple(h.betti for h in hs) == (1, 0, 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_3_figure_fixtures():
    with criterion(3, "figure fixtures: exact f-vectors and Betti profiles"):
        expected = {
            "left": ((4, 5, 2), (1, 0, 0)),
            "middle": ((4, 5, 0), (1, 2)),
            "right": ((4, 4), (1, 1)),
        }
        for which, (fv_expected, betti_expected) in expected.items():
            k = build_complex(figure_digraph(which))
            fv = f_vector(k)
            fv_padded = fv + (0,) * (len(fv_expected) - len(fv))
            assert fv_padded == fv_expected, which
            res = homology_integer(k)
            assert tuple(h.betti for h in res) == betti_expected, which
            assert all(g.torsion == () for g in res), which


def test_criterion_4_cone_lemma_suite(corpus):
    with criterion(4, "cone check and contractibility of every U_x, 201 digraphs"):
        start = time.perf_counter()
        checked = 0
        for g in corpus:
            for x in range(g.n):
                assert check_cone(g, x)
                u_x, _ = induced_subgraph(g, minimal_neighborhood(g, x))
                ku = build_complex(u_x)
                reduced = homology_integer(ku, reduced=True)
                assert all(h.is_zero() for h in reduced)
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 200 * 2
        assert elapsed < 60.0


def test_criterion_5_full_subcomplex_suite(corpus):
    with criterion(5, "full-subcomplex agreement on random induced subsets"):
        rng = random.Random(77)
        for g in corpus:
            subset = [v for v in range(g.n) if rng.random() < 0.6] or [0]
            assert check_full_subcomplex(g, subset)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "builder matches all-subsets/all-permutations brute force"):
        for i in range(100):
            g = random_digraph(1 + i % 6, PS[i % 3], 3000 + i)
            assert set(build_complex(g).simplices()) == brute_force_dvr(g)


def test_criterion_7_chain_complex_soundness(corpus_complexes):
    with criterion(7, "dd=0, verified Smith forms, field Betti = integer Betti"):
        for g, k in corpus_complexes:
            top = len(k.by_dimension) - 1
            boundaries = [boundary_matrix(k, n) for n in range(top + 2)]
            for n in range(top + 1):
                assert matmul(boundaries[n], boundaries[n + 1]).is_zero()
            for b in boundaries:
                sf = smith_normal_form(b)
                assert matmul(matmul(sf.u, b), sf.v) == IntegerMatrix.diagonal(
                    sf.d, b.rows, b.cols
                )
                assert all(x > 0 for x in sf.d)
                assert all(
                    sf.d[i + 1] % sf.d[i] == 0 for i in range(len(sf.d) - 1)
                )
            assert homology_field(k, "q") == [h.betti for h in homology_integer(k)]


def test_criterion_8_les_exactness():
    with criterion(8, "long exact sequence exact at every node, 100 pairs, Q and Z2"):
        rng = random.Random(55)
        for i in range(100):
            g = random_digraph(2 + i % 6, PS[i % 3], 5000 + i)
            k = build_complex(g)
            subset = [v for v in range(g.n) if rng.random() < 0.5] or [0]
            sub = restrict_to(k, subset)
            for field in ("q", 2):
                report = les_exactness_check(k, sub, field)
                assert report.exact, (i, field)


def test_criterion_9_pi1_consistency(corpus_complexes):
    with criterion(9, "abelianized pi1 equals H1 on the corpus and fixtures"):
        connected = 0
        for g, k in corpus_complexes:
            try:
                pres = pi1_presentation(k, 0)
            except InputError:
                continue
            h1 = (
                homology_integer(k)[1]
                if len(k.by_dimension) > 1
                else HomologyGroup(0)
            )
            assert abelianization(pres) == h1
            connected += 1
        assert connected >= 50

        square = pi1_presentation(build_complex(figure_digraph("right")), 0)
        assert abelianization(square) == HomologyGroup(1, ())
        octa = pi1_presentation(build_complex(circulant(6, 2)), 0)
        assert abelianization(octa) == HomologyGroup(0, ())


def test_criterion_10_fx_certification(corpus_complexes):
    with criterion(10, "continuity certified everywhere; sampled checks clean"):
        for g, k in corpus_complexes:
            assert continuity_certificate(k, g).passed

        # 10^4 interior samples per fixture.  Sampled weights are integers
        # 1..1000 on at most 8 coordinates, so distinct coordinates differ by
        # at least 1/8000; a transfer move of delta = 10^-6 (well under
        # 1/1000) cannot reorder them, and exact ties break toward the
        # witness-maximal vertex, which every tied vertex points to.
        fixtures = {
            "circulant(6,2)": circulant(6, 2),
            "digital-sphere": digital_image(S2_POINTS),
            "figure-left": figure_digraph("left"),
            "figure-middle": figure_digraph("middle"),
            "figure-right": figure_digraph("right"),
        }
        delta = Fraction(1, 10**6)
        for name, g in fixtures.items():
            k = build_complex(g)
            report = sampled_continuity_check(k, g, 10**4, delta, seed=20250808)
            assert report.failure_count == 0, name

        # Regression baseline: symmetric fixture at a coarse radius.
        octa = circulant(6, 2)
        ko = build_complex(octa)
        coarse = sampled_continuity_check(ko, octa, 10**4, Fraction(1, 100), seed=1)
        assert coarse.failure_count == 0

        # Two-witness midpoint discrepancy: the same midpoint of edge {x, y}
        # evaluates to x on the edge carried as (y, x), and to y inside the
        # triangle carried as (x, y, z).
        half = Fraction(1, 2)
        x, y, z = 0, 1, 2
        assert evaluate_fx(RealizationPoint((y, x), (half, half))) == x
        assert evaluate_fx(RealizationPoint((x, y, z), (half, half, 0))) == y
