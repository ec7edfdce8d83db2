"""Certification and sampling of the nearest-vertex map f_X.

f_X carries a point of a realized simplex to a digraph vertex: to its
unique nearest vertex when one exists, and on a tie to the tied vertex
occurring last in the carrier simplex's witness ordering.  On the standard
simplex, squared distance to the i-th vertex is sum(t_k^2) - 2 t_i + 1, so
"nearest vertex" is exactly "largest barycentric coordinate"; every
comparison here is exact, never a geometric tolerance.  A point on a
proper face is evaluated on that face's own simplex, with the face's
witness.

``continuity_certificate`` checks f_X combinatorially on every simplex:
each subset of a simplex must map to a vertex that every member of the
subset has an edge to.  ``sampled_continuity_check`` probes it at random:
it draws interior points, moves each a little within its carrier and
checks that the image keeps an edge to the base image.  The pointwise
definition (points, ties, carriers and f_X itself) is a test reference in
``tests/oracles.py``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations

from .complexes import _position
from .digraph import InputError


def _last_max(witness, coords):
    """The vertex of ``witness`` at the last position of the largest coordinate."""
    return witness[len(coords) - 1 - coords[::-1].index(max(coords))]


def _face_witness(k, face):
    """The witness of ``face``, a sorted vertex tuple, in ``k``."""
    pos = _position(k, face)
    if pos is None:
        raise InputError(f"face {face} is missing from the complex")
    return k.orders[len(face) - 1][pos]


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
    passing simplex.  The walk goes a level at a time: level d holds the
    (d+1)-vertex simplices only, so a passing level adds its length to
    ``count`` and its length times 2^(d+1) - 1 to ``checks``.  Only a failing
    witness looks up its position in the level, its simplex and the running
    totals; that first failing simplex walks its subsets, in
    size-then-lexicographic order, to report the first failing one.
    """
    checks = 0
    count = 0
    ins = g._in
    for size, level in enumerate(k.orders, 1):
        for w in level:
            seen = 0
            for v in w:
                seen |= 1 << v
                if ins[v] & seen != seen:
                    pos = level.index(w)
                    s = k.by_dimension[size - 1][pos]
                    done = checks + pos * ((1 << size) - 1)
                    return _first_failure(g, s, w, count + pos + 1, done)
        count += len(level)
        checks += len(level) * ((1 << size) - 1)
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

    The image is the last maximum, the largest (units, position) pair.  Let
    b0 be the base image's position.  When i is not b0 and keeps some mass,
    every coordinate but j ends at or below its start and none passes
    (top, b0), b0's own pair (j's too, if j is b0): the image is w[j] if
    (units of j, j) is larger, else the base image.  With gap = (top -
    weights[j]) * scale, that is one integer comparison: the image is w[j]
    when shift > gap, or shift == gap and j > b0.  Only a move out of b0, or
    one that drains i and so sends the point to a face, is evaluated on
    every coordinate, and only there is the shift clamped to i's units.  A
    failure names its carrier as the sorted witness: levels hold sorted
    tuples and witnesses are orderings of them.

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
    orders = list(chain.from_iterable(k.orders))
    if not orders:
        return SampleReport(samples, delta, seed, 0, ())
    n = len(orders)
    n_bits = n.bit_length()
    # Per witness length d, up to the top level's: the bits of an i draw,
    # the pool m that j is drawn from (d - 1 indices up to 21, then all d)
    # and the bits of m.
    longest = max(map(len, k.orders[-1]))
    pools = [d - 1 if d <= 21 else d for d in range(longest + 1)]
    draws = [(d.bit_length(), m, m.bit_length()) for d, m in enumerate(pools)]
    ins = g._in
    scale = 2000 * delta.denominator
    step = delta.numerator
    checked = 0
    failures = []
    for idx in range(samples):
        x = getrandbits(n_bits)
        while x >= n:
            x = getrandbits(n_bits)
        w = orders[x]
        d = len(w)
        # randint(1, 1000) per vertex: each weight redraws 10 bits until one
        # is below 1000.
        weights = []
        while len(weights) < d:
            wt = getrandbits(10)
            if wt < 1000:
                weights.append(wt + 1)
        if d == 1:
            continue  # no room to move inside a vertex: not checked
        checked += 1
        top = max(weights)
        b0 = d - 1 - weights[::-1].index(top)
        base_value = w[b0]
        total = sum(weights)
        # sample(range(d), 2): j is drawn from the d - 1 indices left with
        # d - 1 moved into i's place, or past 21 indices redrawn until j != i.
        i_bits, m, j_bits = draws[d]
        i = d
        while i >= d:
            i = getrandbits(i_bits)
        j = m
        while j >= m or (j == i and m == d):
            j = getrandbits(j_bits)
        if j == i:
            j = d - 1
        r = getrandbits(10)
        while r > 1000:
            r = getrandbits(10)
        shift = step * r * total
        held = weights[i] * scale
        if shift < held and i != b0:  # j passes b0 or the image stays
            gap = (top - weights[j]) * scale
            if shift < gap:
                continue  # the image stays w[b0], which has its loop
            perturbed_value = w[j] if shift > gap or j > b0 else base_value
        else:
            shift = min(shift, held)
            units = [wt * scale for wt in weights]
            units[i] -= shift
            units[j] += shift
            if units[i]:
                perturbed_value = _last_max(w, units)
            else:  # the point left w[i]: evaluate it on the face's own witness
                face_w = _face_witness(k, tuple(sorted(w[:i] + w[i + 1 :])))
                at = dict(zip(w, units))
                perturbed_value = _last_max(face_w, [at[v] for v in face_w])
        if ins[base_value] >> perturbed_value & 1:
            continue
        pass_delta = None
        for t in range(1, 81):
            # shift <= weights[i] * scale, so moved[i] > 0: w stays the carrier.
            moved = [wt * scale << t for wt in weights]
            moved[i] -= shift
            moved[j] += shift
            if ins[base_value] >> _last_max(w, moved) & 1:
                pass_delta = Fraction(shift, scale * total << (t - 1))
                break
        carrier = tuple(sorted(w))
        failures.append(
            SampleFailure(idx, carrier, base_value, perturbed_value, pass_delta)
        )
    return SampleReport(samples, delta, seed, checked, tuple(failures))
