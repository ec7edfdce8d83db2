"""Reference computations and per-op checks for the benchmark.

Nothing here imports dvrhom.  The reference works from the digraph's
out-neighbour bitmasks alone:

* the directed Vietoris-Rips complex with canonical witnesses, found by the
  greedy rule "peel off the smallest vertex that has an edge to every other
  remaining vertex", which yields the same ordering as the package's
  tail-extension search (the lexicographically least valid ordering);
* Betti numbers over Z_2 of X, of the full subcomplex A on a vertex subset,
  and of the pair (X, A), by XOR reduction of bitmask columns;
* connectivity of the underlying undirected graph.

``pin_of`` keeps from a report only what every correct implementation must
reproduce; ``check_pin`` tests one pin against the reference and
``cross_check`` tests the pins of one subject against each other.
"""

from __future__ import annotations

import hashlib
import json


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_witness(out, mask):
    """Least valid ordering of the vertex set ``mask``, or None."""
    order = []
    while mask:
        for v in _bits(mask):
            if out[v] & mask == mask:
                break
        else:
            return None
        order.append(v)
        mask ^= 1 << v
    return tuple(order)


def dvr_complex(n, out):
    """Levels of sorted vertex tuples, lexicographic, and their witnesses."""
    inn = [0] * n
    for u in range(n):
        for v in _bits(out[u]):
            inn[v] |= 1 << u
    sym = [out[v] | inn[v] for v in range(n)]
    full = (1 << n) - 1
    above = [full & ~((1 << (v + 1)) - 1) for v in range(n)]
    levels = [[(v,) for v in range(n)]] if n else []
    witness = {(v,): (v,) for v in range(n)}
    frontier = [((v,), 1 << v, sym[v] & above[v]) for v in range(n)]
    while frontier:
        nxt = []
        for s, mask, cand in frontier:
            for w in _bits(cand):
                order = canonical_witness(out, mask | (1 << w))
                if order is not None:
                    t = s + (w,)
                    witness[t] = order
                    nxt.append((t, mask | (1 << w), cand & sym[w] & above[w]))
        if nxt:
            levels.append([t for t, _, _ in nxt])
        frontier = nxt
    return levels, witness


def simplex_count(n, out):
    return sum(len(level) for level in dvr_complex(n, out)[0])


def complex_digest(levels, witness):
    return digest([[list(s), list(witness[s])] for level in levels for s in level])


def _rank_z2(columns):
    pivots = {}
    for c in columns:
        while c:
            h = c.bit_length() - 1
            if h not in pivots:
                pivots[h] = c
                break
            c ^= pivots[h]
    return len(pivots)


def betti_z2(levels, member):
    """Z_2 Betti numbers of the chain complex spanned by ``member`` simplices.

    Faces outside the basis are dropped from boundaries, so ``member`` =
    "inside A" gives H(A) and "not inside A" gives H(X, A).  One entry per
    degree of X.
    """
    bases = [[s for s in level if member(s)] for level in levels]
    ranks = [0] * (len(bases) + 1)
    for d in range(1, len(bases)):
        pos = {s: i for i, s in enumerate(bases[d - 1])}
        cols = []
        for s in bases[d]:
            c = 0
            for i in range(len(s)):
                j = pos.get(s[:i] + s[i + 1 :])
                if j is not None:
                    c |= 1 << j
            cols.append(c)
        ranks[d] = _rank_z2(cols)
    return [len(bases[d]) - ranks[d] - ranks[d + 1] for d in range(len(bases))]


def connected(n, out):
    seen = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in _bits(out[u]):
            if not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
        for v in range(n):
            if out[v] >> u & 1 and not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
    return seen == (1 << n) - 1


class Reference:
    """Everything the checks need to know about one subject."""

    def __init__(self, n, out, subset):
        self.levels, witness = dvr_complex(n, out)
        self.f_vector = [len(level) for level in self.levels]
        self.complex_digest = complex_digest(self.levels, witness)
        self.certificate_checks = sum(
            (1 << len(s)) - 1 for level in self.levels for s in level
        )
        self.connected = connected(n, out)
        self.subset = frozenset(subset or ())
        self.z2 = betti_z2(self.levels, lambda s: True)
        if subset is not None:
            inside = self.subset.issuperset
            self.z2_sub = betti_z2(self.levels, inside)
            self.z2_rel = betti_z2(self.levels, lambda s: not inside(s))
            self.rel_f = [
                sum(1 for s in level if not inside(s)) for level in self.levels
            ]


def euler(values):
    return sum(v if d % 2 == 0 else -v for d, v in enumerate(values))


def _even(torsion):
    return sum(1 for t in torsion if t % 2 == 0)


def _uct_z2(groups):
    """Z_2 Betti numbers implied by integer groups (universal coefficients)."""
    out = []
    for d, g in enumerate(groups):
        below = groups[d - 1]["torsion"] if d else []
        out.append(g["betti"] + _even(g["torsion"]) + _even(below))
    return out


def _groups(report):
    return [
        {"betti": g["betti"], "torsion": list(g["torsion"])} for g in report["groups"]
    ]


def pin_of(kind, report):
    """The part of a report that any correct implementation reproduces."""
    if isinstance(report, Exception):
        return {"error": type(report).__name__}
    if kind == "complex":
        return {
            "f_vector": report["f_vector"],
            "simplices": complex_digest_of_report(report),
            "truncated": report["truncated"],
        }
    if kind.startswith("homology"):
        return {"groups": _groups(report), "truncated": report["truncated"]}
    if kind == "pair":
        return {"groups": _groups(report)}
    if kind.startswith("les"):
        nodes = [
            [x["name"], x["dim"], x["rank_in"], x["rank_out"], x["exact"]]
            for x in report["nodes"]
        ]
        return {"exact": report["exact"], "nodes": nodes}
    if kind == "pi1":
        return {"abelianization": report["abelianization"]}
    if kind == "fx-certify":
        return {"passed": report["passed"], "checks": report["checks"],
                "simplices": report["simplices"]}
    if kind == "fx-sample":
        # ``checked`` and ``failure_rate`` are left out: the package counts
        # samples drawn on vertices as checked although they are skipped.
        return {"samples": report["samples"], "failure_count": report["failure_count"]}
    raise ValueError(f"unknown op kind {kind!r}")


def complex_digest_of_report(report):
    return digest([[s["verts"], s["witness"]] for s in report["simplices"]])


def check_pin(kind, pin, ref, expect):
    """Problems found in one pin, as a list of strings (empty when sound).

    ``expect`` holds what the op was asked for: the sample count of an
    fx-sample op.
    """
    if "error" in pin:
        if kind == "pi1" and not ref.connected and pin["error"] == "InputError":
            return []
        return [f"raised {pin['error']}"]
    if kind == "pi1" and not ref.connected:
        return ["pi1 of a disconnected complex did not raise InputError"]
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if kind == "complex":
        need(pin["f_vector"] == ref.f_vector, "f_vector differs from the reference")
        need(pin["simplices"] == ref.complex_digest, "simplices or witnesses differ")
        need(pin["truncated"] is False, "complex marked truncated")
    elif kind.startswith("homology"):
        groups = pin["groups"]
        betti = [g["betti"] for g in groups]
        need(len(groups) == len(ref.f_vector), "wrong number of degrees")
        need(euler(betti) == euler(ref.f_vector), "Euler characteristic mismatch")
        need(pin["truncated"] is False, "homology marked truncated")
        if kind == "homology-z":
            need(_uct_z2(groups) == ref.z2, "integer groups disagree with Z_2 ranks")
        elif kind == "homology-zp:2":
            need(betti == ref.z2, "Z_2 Betti numbers differ from the reference")
        else:
            need(all(not g["torsion"] for g in groups), "field homology has torsion")
            if kind == "homology-q":
                need(all(b <= r for b, r in zip(betti, ref.z2)), "Q Betti above Z_2")
    elif kind == "pair":
        groups = pin["groups"]
        need(len(groups) == len(ref.f_vector), "wrong number of degrees")
        need(
            euler([g["betti"] for g in groups]) == euler(ref.rel_f),
            "relative Euler characteristic mismatch",
        )
        need(_uct_z2(groups) == ref.z2_rel, "relative groups disagree with Z_2 ranks")
    elif kind.startswith("les"):
        nodes = pin["nodes"]
        need(pin["exact"] is True, "sequence reported inexact")
        top = len(ref.f_vector) - 1
        names = [
            f"H{d}({x})" for d in range(top, -1, -1) for x in ("A", "X", "X,A")
        ]
        need([x[0] for x in nodes] == names, "node names out of order")
        for q, (name, dim, rank_in, rank_out, exact) in enumerate(nodes):
            need(exact is True, f"{name} inexact")
            need(rank_in + rank_out == dim, f"{name} ranks do not add up")
            if q + 1 < len(nodes):
                need(rank_out == nodes[q + 1][2], f"{name} map rank read twice")
        if kind == "les-zp:2" and len(nodes) == len(names):
            dims = [x[1] for x in nodes]
            expected = [
                src[d] for d in range(top, -1, -1)
                for src in (ref.z2_sub, ref.z2, ref.z2_rel)
            ]
            need(dims == expected, "node dimensions differ from Z_2 reference")
    elif kind == "pi1":
        ab = pin["abelianization"]
        b1 = ref.z2[1] if len(ref.z2) > 1 else 0
        need(ab["betti"] + _even(ab["torsion"]) == b1, "pi1 abelianization vs Z_2 H1")
    elif kind == "fx-certify":
        need(pin["passed"] is True, "certificate failed")
        need(pin["checks"] == ref.certificate_checks, "certificate check count")
        need(pin["simplices"] == sum(ref.f_vector), "certificate simplex count")
    elif kind == "fx-sample":
        need(pin["failure_count"] == 0, "sampled continuity failures at 1/10^6")
        need(pin["samples"] == expect, "sample count")
    return problems


def cross_check(pins):
    """(op kind, problem) pairs found between the pins of one subject."""
    problems = []

    def sound(kind):
        pin = pins.get(kind)
        return pin if pin and "error" not in pin else None

    z = sound("homology-z")
    if z:
        h1 = z["groups"][1] if len(z["groups"]) > 1 else {"betti": 0, "torsion": []}
        pi1 = sound("pi1")
        if pi1 and pi1["abelianization"] != h1:
            problems.append(("pi1", "pi1 abelianization differs from H1"))
        free = [g["betti"] for g in z["groups"]]
        q = sound("homology-q")
        if q and [g["betti"] for g in q["groups"]] != free:
            problems.append(("homology-q", "Q Betti numbers differ from Z free ranks"))
        for p in (2, 3):
            zp = sound(f"homology-zp:{p}")
            if zp and any(g["betti"] < f for g, f in zip(zp["groups"], free)):
                problems.append((f"homology-zp:{p}", f"Z_{p} Betti below Z free rank"))
    q, les_q = sound("homology-q"), sound("les-q")
    if q and les_q:
        top = len(q["groups"]) - 1
        dims = [x[1] for x in les_q["nodes"] if x[0].endswith("(X)")]
        if dims != [q["groups"][d]["betti"] for d in range(top, -1, -1)]:
            problems.append(("les-q", "LES H(X) over Q differs from Q homology"))
    return problems
