"""Evaluation and certification of the nearest-vertex map.

Points of a realized simplex are carried to digraph vertices: a point goes
to its unique nearest vertex when one exists, and ties are broken toward the
vertex occurring last in the carrier simplex's witness ordering.  On the
standard simplex, squared distance to the i-th vertex is
sum(t_k^2) - 2 t_i + 1, so "nearest vertex" is exactly "largest barycentric
coordinate"; all comparisons here are exact rational arithmetic, never a
geometric tolerance.

Points on a proper face must be presented on that face's own simplex (with
the face's witness) to get the face-level value; evaluation is always
relative to the carrier given.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, repeat

from .digraph import InputError


class RealizationPoint(namedtuple("RealizationPoint", "witness coords")):
    """A point of one realized simplex, in barycentric coordinates.

    ``witness`` is the carrier simplex's witness ordering; ``coords[i]`` is
    the exact coordinate of ``witness[i]``.  Coordinates are nonnegative and
    sum to one.
    """

    __slots__ = ()

    def __new__(cls, witness, coords):
        witness = tuple(witness)
        coords = tuple(map(Fraction, coords))
        if len(witness) != len(set(witness)):
            raise InputError("carrier witness repeats a vertex")
        if len(coords) != len(witness):
            raise InputError("coordinate count does not match the carrier")
        if not coords:
            raise InputError("a realization point needs a nonempty carrier")
        if any(c < 0 for c in coords):
            raise InputError("barycentric coordinates must be nonnegative")
        if sum(coords) != 1:
            raise InputError("barycentric coordinates must sum to 1")
        return super().__new__(cls, witness, coords)

    @classmethod
    def _make(cls, iterable):
        # The inherited _make, which _replace calls, would skip the checks.
        return cls(*iterable)


def point_in(k, verts, coords):
    """Realization point on a simplex of ``k``, using its stored witness."""
    verts = tuple(sorted(verts))
    if verts not in k.witness:
        raise InputError(f"{verts} is not a simplex of the complex")
    return RealizationPoint(k.witness[verts], coords)


def barycenter(k, verts):
    verts = tuple(sorted(verts))
    if verts not in k.witness:
        raise InputError(f"{verts} is not a simplex of the complex")
    n = len(verts)
    return RealizationPoint(k.witness[verts], (Fraction(1, n),) * n)


def tie_set(p):
    """Vertices achieving the maximal coordinate, ascending; exact compare."""
    top = max(p.coords)
    return tuple(sorted(v for v, c in zip(p.witness, p.coords) if c == top))


def evaluate_fx(p):
    """Value of the nearest-vertex map at ``p``, relative to its carrier.

    The unique coordinate maximum wins outright; among tied vertices the one
    with the largest witness index wins.
    """
    return _last_max(p.witness, p.coords)


def _last_max(witness, coords):
    """The vertex of ``witness`` at the last position of the largest coordinate."""
    return witness[len(coords) - 1 - coords[::-1].index(max(coords))]


def _face_witness(k, face):
    if face not in k.witness:
        raise InputError(f"face {face} is missing from the complex")
    return k.witness[face]


def carrier_point(k, p):
    """Push a point with zero coordinates down to its minimal face carrier."""
    support = {v: c for v, c in zip(p.witness, p.coords) if c > 0}
    face = tuple(sorted(support))
    if face == tuple(sorted(p.witness)):
        return p
    w = _face_witness(k, face)
    return RealizationPoint(w, tuple(support[v] for v in w))


# counterexample: None, or (simplex, tie subset, vertex, target)
CertificateReport = namedtuple(
    "CertificateReport", "passed simplices checks counterexample"
)


def continuity_certificate(k, g):
    """Combinatorial continuity check of the nearest-vertex map.

    For every simplex and every nonempty subset tau of its support, the
    tie-broken image w (the tau-member last in the witness) must satisfy
    v -> w for all v in tau: nearby points map into the minimal neighborhood
    of w.  Holds for every correctly built complex; a failure indicates a
    corrupted witness.

    All subsets of a simplex pass exactly when each witness vertex w[j] has
    an in-edge from every w[i] with i <= j, loops included: a pair needs
    that edge, and a subset's image is its member last in the witness.  So
    each simplex costs one in-mask test per vertex against the running
    witness prefix, and ``checks`` still counts every subset, 2^|s| - 1 per
    passing simplex.  Only the first failing simplex walks its subsets, in
    size-then-lexicographic order, to report the first failing one.
    """
    checks = 0
    count = 0
    ins = g._in
    for s in k.simplices():
        count += 1
        w = k.witness[s]
        seen = 0
        for v in w:
            seen |= 1 << v
            if ins[v] & seen != seen:
                return _first_failure(g, s, w, count, checks)
        checks += (1 << len(s)) - 1
    return CertificateReport(True, count, checks, None)


def _first_failure(g, s, w, count, checks):
    """Report for the first subset of ``s`` whose image misses an in-edge."""
    pos = {v: i for i, v in enumerate(w)}
    for size in range(1, len(s) + 1):
        for tau in combinations(s, size):
            checks += 1
            target = max(tau, key=pos.__getitem__)
            for v in tau:
                if not g.has_edge(v, target):
                    return CertificateReport(False, count, checks, (s, tau, v, target))
    raise AssertionError("unreachable: a failing witness prefix has a failing pair")


# pass_delta: the first halved radius at which the check passes, or None
SampleFailure = namedtuple(
    "SampleFailure", "index carrier base_value perturbed_value pass_delta"
)


class SampleReport(namedtuple("SampleReport", "samples delta seed checked failures")):
    """Outcome of ``sampled_continuity_check``: ``failures`` holds a
    ``SampleFailure`` for each of the ``checked`` samples that failed."""

    __slots__ = ()

    @property
    def failure_count(self):
        return len(self.failures)

    @property
    def failure_rate(self):
        if not self.checked:
            return Fraction(0)
        return Fraction(len(self.failures), self.checked)


def _below(getrandbits, n):
    """``randrange(n)`` from ``getrandbits``: n.bit_length() bits, redrawn
    until the value is below n."""
    bits = n.bit_length()
    x = getrandbits(bits)
    while x >= n:
        x = getrandbits(bits)
    return x


def sampled_continuity_check(k, g, samples, delta, seed=0):
    """Randomized continuity probe of the nearest-vertex map.

    Draws interior points (integer weights 1..1000, normalized) on random
    simplices, perturbs each within its carrier by moving at most delta/2 of
    mass between two coordinates (an l1 move of at most delta, exactly
    simplex-preserving), pushes the perturbed point to its minimal face
    carrier, and checks that its image keeps an edge to the base image.
    Points drawn on a vertex cannot move and are not counted as ``checked``.

    Failures are possible when delta exceeds a point's coordinate gap on a
    one-way edge; each failure is retried at halved radii and the first
    passing radius is recorded, which must exist for interior points.

    Passing samples are computed exactly in integers, in units of
    1 / (2000 * delta.denominator * total) where ``total`` is the sample's
    weight sum: a coordinate wt / total is wt * 2000 * delta.denominator
    units and a move of delta * r / 2000 is delta.numerator * r * total
    units.  The halving retries of a failing sample stay in integers too:
    retry t scales every unit by 2^t and keeps the shift, which halves the
    move t times.

    Every random number comes from one ``random.Random(seed).getrandbits``
    under ``randrange``'s rejection rule: a number below m is m.bit_length()
    bits, drawn again until it is below m.  Each sample draws, in order, its
    simplex (below the simplex count), one weight per vertex (1 plus a
    number below 1000), i and j as ``random.sample(range(d), 2)`` draws
    them, and r (below 1001).  So a seed gives the report that
    ``randrange``, ``randint`` and ``sample`` gave, and the report depends
    only on the Mersenne Twister's ``getrandbits`` output, not on
    ``random``'s Python-level helpers.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise InputError("perturbation radius must be positive")
    if samples < 0:
        raise InputError("sample count must be nonnegative")
    getrandbits = random.Random(seed).getrandbits
    all_simplices = list(k.simplices())
    if not all_simplices:
        return SampleReport(samples, delta, seed, 0, ())
    n = len(all_simplices)
    scale = 2000 * delta.denominator
    checked = 0
    failures = []
    for idx in range(samples):
        s = all_simplices[_below(getrandbits, n)]
        w = k.witness[s]
        d = len(w)
        # randint(1, 1000) per vertex: each weight redraws 10 bits until one
        # is below 1000, so the weights are the first d draws accepted.
        weights = [wt + 1 for wt in map(getrandbits, repeat(10, d)) if wt < 1000]
        while len(weights) < d:
            wt = getrandbits(10)
            if wt < 1000:
                weights.append(wt + 1)
        if d == 1:
            continue  # no room to move inside a vertex: not checked
        checked += 1
        base_value = _last_max(w, weights)
        total = sum(weights)
        # sample(range(d), 2): j is drawn from the d - 1 indices left with
        # d - 1 moved into i's place, or past 21 indices redrawn until j != i.
        i = _below(getrandbits, d)
        if d <= 21:
            j = _below(getrandbits, d - 1)
            if j == i:
                j = d - 1
        else:
            j = _below(getrandbits, d)
            while j == i:
                j = _below(getrandbits, d)
        r = _below(getrandbits, 1001)
        units = [wt * scale for wt in weights]
        shift = min(delta.numerator * r * total, units[i])
        units[i] -= shift
        units[j] += shift
        if units[i]:
            perturbed_value = _last_max(w, units)
        else:  # the point left w[i]: evaluate it on the face's own witness
            face_w = _face_witness(k, tuple(sorted(w[:i] + w[i + 1 :])))
            at = dict(zip(w, units))
            perturbed_value = _last_max(face_w, [at[v] for v in face_w])
        if g.has_edge(perturbed_value, base_value):
            continue
        pass_delta = None
        for t in range(1, 81):
            # shift <= weights[i] * scale, so moved[i] > 0: w stays the carrier.
            moved = [wt * scale << t for wt in weights]
            moved[i] -= shift
            moved[j] += shift
            if g.has_edge(_last_max(w, moved), base_value):
                pass_delta = Fraction(shift, scale * total << (t - 1))
                break
        failures.append(
            SampleFailure(idx, s, base_value, perturbed_value, pass_delta)
        )
    return SampleReport(samples, delta, seed, checked, tuple(failures))
