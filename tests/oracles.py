"""Independent oracles for the test suite.

Everything here recomputes answers by a different route than the package:
exhaustive enumeration, Bron-Kerbosch, Bareiss elimination, a Smith form
by plain Euclidean steps that keeps its transforms, and a tagged
elimination over Z, Q and Z_p of its own.  Keeping these independent is
the point; do not import algorithmic code from dvrhom beyond plain data
accessors.  There are two exceptions.  ``integer_homology_oracle`` hands
the ``columns`` of every full boundary map on its own to the package's
``invariant_factors``, so it checks the top-down clearing and not the
core; ``test_elimination`` holds the core itself to the dense oracles here
and to the tagged elimination.  ``check_full_subcomplex`` and
``check_cone`` state the paper's full-subcomplex and cone lemmas over the
package's ``build_complex``, so the lemmas are checked on the package.
``IntegerMatrix`` is the oracles' own sparse container.  The closure-space
helpers (``out_set``, ``in_set``, ``closure_of``, ``interior_of``,
``minimal_neighborhood``, ``is_interior_cover``, ``induced_subgraph``),
which read a digraph through ``has_edge`` alone, and the pointwise
nearest-vertex map (``RealizationPoint``, ``carrier_point``,
``evaluate_fx``) are the reference definitions that the package's bitmask
code and sampler are tested against; ``carrier_point`` finds a face's
witness by a scan of its level, where the sampler bisects.
``witness_dict`` reads a complex's levels and ``orders`` into one dict
from simplex to witness, which the package does not keep.  ``map_complex``
applies a digraph morphism simplexwise and tests each image with the
package's ``in``.  The chain-level oracle of the long exact sequence,
``les_chain_oracle``, runs that tagged elimination to pick homology
representatives and map them, where the package reads every rank off one
filtered reduction.  ``column_reduce_rescan`` is the sparse column
reduction over Z written out with the set-aside pass that rescans each
column for its largest low after every subtraction, the reference for the
package's heap of lows.  ``cli_parser_oracle`` is the command-line parser
written out one argparse call at a time, the reference for the help texts
and namespaces of the parsers that ``dvrhom.cli`` builds from its table.
``eager_complex_oracle`` is the directed clique complex builder that
makes every witness as it goes, in a dict, the reference for the
package's builder, which keeps links and makes witnesses on first read.
``restrict_to`` builds the full subcomplex on a vertex subset, with the
witness orders of the simplices it keeps, the reference for the package's
pairs given by their vertices, and
``digraph_digest_oracle`` hashes a digraph's document as ``json.dumps``
writes it, the reference for the input digest of the package's one-walk
reader; ``digraph_document_oracle`` builds its digraph with the package's
``Digraph.from_edge_list``, which that reader does not call.  The
builders and the greedy peel read a digraph's in-masks and symmetric masks
as the package keeps them, ``g._in`` and ``g._sym``, for which it has no
accessor.
"""

import argparse
import functools
import hashlib
import json
from collections import deque, namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, compress, permutations

from dvrhom import Digraph, InputError, SimplicialComplex, build_complex
from dvrhom.homology import NodeReport
from dvrhom.matrices import invariant_factors


def brute_force_dvr(g, max_dim=None):
    """All simplices of the directed clique complex, by exhaustive search.

    Tries every nonempty vertex subset and every permutation of it.
    """
    found = set()
    top = g.n if max_dim is None else min(g.n, max_dim + 1)
    for size in range(1, top + 1):
        for subset in combinations(range(g.n), size):
            for order in permutations(subset):
                if all(
                    g.has_edge(order[i], order[j])
                    for i in range(size)
                    for j in range(i + 1, size)
                ):
                    found.add(subset)
                    break
    return found


def brute_force_witness(g, s):
    """First valid ordering of the vertex set ``s`` in lexicographic order.

    Tries every permutation of the sorted set; None when none is valid.
    """
    for order in permutations(sorted(set(s))):
        if all(
            g.has_edge(order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
        ):
            return order
    return None


def _greedy_peel(ins, mask):
    """Lexicographically least witness of the vertex set ``mask``, or None.

    ``ins[v]`` is the in-mask of v.  Repeatedly peels off the smallest member
    with an edge to every other remaining member, recomputed from scratch at
    every step.
    """
    order = []
    while mask:
        common = rest = mask
        while rest:
            low = rest & -rest
            common &= ins[low.bit_length() - 1]
            rest ^= low
        if not common:
            return None
        low = common & -common
        order.append(low.bit_length() - 1)
        mask ^= low
    return tuple(order)


def greedy_complex_oracle(g, max_dim=None):
    """(by_dimension, witness, truncated) of the directed clique complex.

    Level by level: every sigma+{w} with w above max(sigma) and
    semicomplete-adjacent to all of sigma is confirmed by a fresh greedy
    peel of the whole set.  With a cap, one more level is probed for any
    simplex to set ``truncated``.
    """
    ins, sym = g._in, g._sym
    levels = [[(v,) for v in range(g.n)]] if g.n else []
    witness = {(v,): (v,) for v in range(g.n)}

    def next_level(prev, record):
        nxt = []
        for sigma in prev:
            mask = sum(1 << v for v in sigma)
            cand = ((1 << g.n) - 1) >> (sigma[-1] + 1) << (sigma[-1] + 1)
            for v in sigma:
                cand &= sym[v]
            for w in range(sigma[-1] + 1, g.n):
                if cand >> w & 1:
                    order = _greedy_peel(ins, mask | 1 << w)
                    if order is not None:
                        nxt.append(sigma + (w,))
                        record[sigma + (w,)] = order
        return nxt

    while levels and (max_dim is None or len(levels) <= max_dim):
        nxt = next_level(levels[-1], witness)
        if not nxt:
            break
        levels.append(nxt)
    truncated = bool(
        max_dim is not None
        and len(levels) == max_dim + 1
        and next_level(levels[-1], {})
    )
    return levels, witness, truncated


def eager_complex_oracle(g, max_dim=None):
    """(by_dimension, witness, truncated) of the directed clique complex,
    each witness made as its simplex is found.

    The package's builder with a witness dict: a candidate tau = sigma+{w}
    is a simplex when tau-s, s the lowest vertex of tau with an edge to all
    of it, is one, and its witness is (s,) followed by that of tau-s.
    """
    if max_dim is not None and max_dim < 0:
        raise InputError("dimension cap must be >= 0")
    ins, sym = g._in, g._sym
    level = {
        1 << v: ((v,), (v,), ins[v], sym[v] >> (v + 1) << (v + 1))
        for v in range(g.n)
    }
    levels, witness = [], {(v,): (v,) for v in range(g.n)}
    while level:
        levels.append([s for s, _, _, _ in level.values()])
        if max_dim is not None and len(levels) > max_dim:
            truncated = bool(_eager_next_level(ins, sym, level, {}, first_only=True))
            return levels, witness, truncated
        level = _eager_next_level(ins, sym, level, witness)
    return levels, witness, False


def _eager_next_level(ins, sym, prev, witness, first_only=False):
    nxt = {}
    for mask, (sigma, _, common, cand) in prev.items():
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            tau = mask | low
            tau_common = common & ins[w]
            src = tau_common & tau
            if src:
                s = src & -src
                face = prev.get(tau ^ s)
                if face is not None:
                    t = sigma + (w,)
                    witness[t] = order = (s.bit_length() - 1,) + face[1]
                    nxt[tau] = (t, order, tau_common, cand & sym[w])
                    if first_only:
                        return nxt
    return nxt


def is_simplex(g, s):
    """Witness ordering of the vertex set ``s`` in ``g`` by a greedy peel,
    or None if no ordering exists."""
    s = _vertex_set(g, s)
    if not s:
        raise InputError("is_simplex needs a nonempty vertex set")
    return _greedy_peel(g._in, sum(1 << v for v in s))


def check_full_subcomplex(g, a, max_dim=None):
    """Whether the package's complex of ``g``, restricted to ``a``, equals
    its complex of the induced subgraph on ``a``: the paper's full-subcomplex
    lemma, expected to hold for every digraph and vertex set."""
    sub, a = induced_subgraph(g, a)
    pos = {v: i for i, v in enumerate(a)}
    aset = set(a)
    restricted = {
        tuple(pos[v] for v in s)
        for s in build_complex(g, max_dim).simplices()
        if aset.issuperset(s)
    }
    return restricted == set(build_complex(sub, max_dim).simplices())


def restrict_to(k, a):
    """Full subcomplex of ``k`` on the vertex subset ``a`` (same ids)."""
    aset = set(a)
    kept = [list(map(aset.issuperset, level)) for level in k.by_dimension]
    # A full subcomplex is face closed: its nonempty levels come first.
    kept = [mask for mask in kept if any(mask)]
    by_dim = [list(compress(*pair)) for pair in zip(k.by_dimension, kept)]
    orders = [list(compress(*pair)) for pair in zip(k.orders, kept)]
    return SimplicialComplex(by_dim, orders, truncated=k.truncated)


def witness_dict(k):
    """The dict from each simplex of ``k`` to its witness."""
    simplices = chain.from_iterable(k.by_dimension)
    return dict(zip(simplices, chain.from_iterable(k.orders)))


SimplicialMapReport = namedtuple(
    "SimplicialMapReport", "vertex_map entries degenerate all_images_present"
)
SimplicialMapReport.__doc__ = """Image data of a vertex map applied simplexwise.

``entries`` pairs each source simplex with its image simplex, and
``degenerate`` lists the source simplices whose image drops dimension.
"""


def map_complex(f, source, target):
    """Apply a digraph morphism to every simplex and confirm the images.

    ``f`` maps source vertices to target vertices (sequence or mapping); it
    must send edges to edges, which is verified, not assumed.
    """
    if not isinstance(f, (Sequence, Mapping)):
        raise InputError(
            f"the vertex map ({type(f).__name__}) is neither a sequence nor a mapping"
        )
    fmap = []
    for v in range(source.n):
        try:
            fmap.append(f[v])
        except (IndexError, KeyError):
            raise InputError(f"vertex {v} has no image") from None
        if type(fmap[v]) is not int or not 0 <= fmap[v] < target.n:
            raise InputError(f"vertex {v} maps to {fmap[v]!r}, outside the target")
    for u in range(source.n):
        for v in out_set(source, u):
            if not target.has_edge(fmap[u], fmap[v]):
                raise InputError(
                    f"not a digraph morphism: edge ({u}, {v}) maps to "
                    f"non-edge ({fmap[u]}, {fmap[v]})"
                )
    ks = build_complex(source)
    kt = build_complex(target)
    entries = []
    degenerate = []
    ok = True
    for s in ks.simplices():
        image = tuple(sorted({fmap[v] for v in s}))
        entries.append((s, image))
        if len(image) < len(s):
            degenerate.append(s)
        if image not in kt:
            ok = False
    return SimplicialMapReport(tuple(fmap), tuple(entries), tuple(degenerate), ok)


def check_cone(g, x):
    """Whether the package's complex of the induced subgraph on U_x is a
    combinatorial cone with apex x: the paper's cone lemma, expected to
    hold for every digraph and vertex."""
    sub, u = induced_subgraph(g, minimal_neighborhood(g, x))
    apex = u.index(x)
    k = build_complex(sub)
    return all(tuple(sorted(set(s) | {apex})) in k for s in k.simplices())


def closure_oracle(faces, witnesses=None):
    """Face closure of arbitrary vertex sets, as (levels, witness map).

    Closes every face over all of its 2^k nonempty subsets and sorts the
    result once by (size, tuple); witnesses default to the sorted tuple.
    Raises the same ``InputError`` messages as
    ``SimplicialComplex.from_simplices``.
    """
    closed = set()
    for f in faces:
        f = tuple(sorted(set(f)))
        if not f:
            raise InputError("simplices must be nonempty")
        for k in range(1, len(f) + 1):
            closed.update(combinations(f, k))
    levels = []
    for s in sorted(closed, key=lambda t: (len(t), t)):
        while len(levels) < len(s):
            levels.append([])
        levels[len(s) - 1].append(s)
    witness = {s: s for s in closed}
    for s, w in (witnesses or {}).items():
        s = tuple(s)
        if s not in witness:
            raise InputError(f"witness given for missing simplex {s}")
        if tuple(sorted(w)) != s:
            raise InputError(f"witness {w} is not an ordering of {s}")
        witness[s] = tuple(w)
    return levels, witness


def complex_document_oracle(doc):
    """A complex document read in two steps, as (levels, witness map, truncated).

    First one pass over ``simplices`` checks each item and collects its
    sorted ``verts`` and its witness; then ``closure_oracle`` closes the
    faces and checks the witnesses, with the messages of
    ``SimplicialComplex.from_simplices``.  Raises the ``InputError`` messages
    of the CLI's reader in the same order, except on a ``verts`` list that
    repeats a vertex, which this reads as the set of its vertices.
    """
    bad = (
        "'simplices' must be a list of objects with integer lists \"verts\" and"
        ' (optional) "witness"'
    )
    items = doc["simplices"]
    if type(items) is not list:
        raise InputError(bad)
    faces, witnesses, clash = [], {}, None
    for item in items:
        verts = item.get("verts") if type(item) is dict else None
        if type(verts) is not list or not all(type(v) is int for v in verts):
            raise InputError(bad)
        verts = tuple(sorted(verts))
        faces.append(verts)
        if "witness" in item:
            witness = item["witness"]
            if type(witness) is not list or not all(type(v) is int for v in witness):
                raise InputError(bad)
            witness = tuple(witness)
            if witnesses.setdefault(verts, witness) != witness and clash is None:
                clash = verts
    truncated = doc.get("truncated", False)
    if type(truncated) is not bool:
        raise InputError("'truncated' must be true or false")
    if clash is not None:
        raise InputError(f"'simplices' gives two witnesses for {list(clash)}")
    levels, witness = closure_oracle(faces, witnesses)
    return levels, witness, truncated


def _is_label(x):
    return type(x) in (str, int, float)


def _resolve_entry(entry, index):
    if isinstance(entry, str) and entry in index:
        return index[entry]
    if isinstance(entry, int) and 0 <= entry < len(index):
        if index.get(str(entry), entry) != entry:
            raise InputError(
                f"edge entry {entry} names two vertices: the one at index "
                f"{entry} and the one labelled {str(entry)!r}"
            )
        return entry
    if str(entry) in index:
        return index[str(entry)]
    raise InputError(f"unknown vertex label {entry!r}")


def digraph_digest_oracle(g):
    """The input digest of the digraph ``g``: the sha256 of the compact,
    key-sorted JSON of its labels (the vertex indices as strings when it
    has none) and the sorted [label, label] lists of its edges other than
    loops, read back off the masks."""
    labels = list(g.labels or map(str, range(g.n)))
    edges = sorted([labels[u], labels[v]] for u, v in g.edges())
    text = json.dumps(
        {"vertices": labels, "edges": edges}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digraph_document_oracle(doc):
    """A digraph document read entry by entry, as (the digraph that
    ``Digraph.from_edge_list`` makes, its ``digraph_digest_oracle``).

    Each item of ``vertices`` and ``edges`` is checked on its own, and each
    edge entry resolved on its own (a label, else an int's index, else the
    label ``str(entry)``).  Raises the ``InputError`` messages of the CLI's
    reader in the same order, for a dict without ``simplices``.
    """
    vertices, edges = doc.get("vertices", []), doc.get("edges", [])
    if type(vertices) is not list or not all(_is_label(x) for x in vertices):
        raise InputError("'vertices' must be a list of vertex labels")
    if type(edges) is not list or not all(
        type(e) is list and len(e) == 2 and all(_is_label(x) for x in e) for e in edges
    ):
        raise InputError("'edges' must be a list of [u, v] label pairs")
    if type(doc.get("truncated", False)) is not bool:
        raise InputError("'truncated' must be true or false")
    if "vertices" not in doc and "edges" not in doc:
        raise InputError("input json is neither a digraph nor a complex document")
    labels = [str(x) for x in vertices]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InputError("vertex labels must be unique")
    pairs = [tuple(_resolve_entry(entry, index) for entry in pair) for pair in edges]
    g = Digraph.from_edge_list(len(labels), pairs, labels=labels or None)
    return g, digraph_digest_oracle(g)


def bron_kerbosch_cliques(g):
    """Maximal cliques of a symmetric digraph (loops ignored), with pivoting."""
    neighbors = {
        v: {w for w in range(g.n) if w != v and g.has_edge(v, w)}
        for v in range(g.n)
    }
    cliques = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda u: len(neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            expand(clique | {v}, candidates & neighbors[v], excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(g.n)), set())
    return cliques


def clique_complex_faces(g):
    """All faces of all maximal cliques of a symmetric digraph."""
    faces = set()
    for clique in bron_kerbosch_cliques(g):
        members = sorted(clique)
        for size in range(1, len(members) + 1):
            faces.update(combinations(members, size))
    return faces


def dense_rref(rows, p=None):
    """Reduced row echelon form over Q (p=None) or Z_p, and its pivot columns."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    a = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col] if p is None else pow(a[r][col], p - 2, p)
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def rational_rank(rows):
    """Matrix rank by straightforward fraction elimination."""
    return len(dense_rref(rows)[1])


def field_nullspace(rows, ncols, p=None):
    """Basis of the right nullspace, one vector per free column."""
    rref, pivots = dense_rref(rows, p)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[j] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][j] if p is None else -rref[r][j] % p
        basis.append(vec)
    return basis


def field_solve(rows, rhs, p=None):
    """One solution of A x = b over the field, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    rref, pivots = dense_rref([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if n in pivots:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = rref[r][n]
    return x


def dense_matmul(a, b, p=None):
    """The product of dense matrices over Q (p=None) or Z_p."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    ncols = len(b[0]) if b else 0
    return [
        [norm(sum(x * row[k] for x, row in zip(arow, b))) for k in range(ncols)]
        for arow in a
    ]


def dense_boundary(bases, n):
    """The n-th boundary map over per-degree simplex bases, as dense rows.

    Rows are ``bases[n - 1]`` and columns ``bases[n]``; faces missing from
    ``bases[n - 1]`` are dropped, which gives the quotient complex of a pair
    when the bases leave out the subcomplex.
    """
    faces = bases[n - 1] if 0 < n <= len(bases) else []
    simplices = bases[n] if n < len(bases) else []
    pos = {s: i for i, s in enumerate(faces)}
    rows = [[0] * len(simplices) for _ in faces]
    for j, s in enumerate(simplices):
        for i in range(len(s)):
            r = pos.get(s[:i] + s[i + 1 :])
            if r is not None:
                rows[r][j] = (-1) ** i
    return rows


def pair_table_oracle(levels, sub=()):
    """The boundary maps of X, A and X/A in every degree, built whole.

    ``levels`` is X's simplex basis per degree and ``sub`` holds A's
    simplices.  Each map comes from ``dense_boundary`` on X's basis, as
    ``{column position: {row position: value}}`` keyed by X's positions in
    increasing order: A has the columns of its simplices, and X/A has the
    others, less the rows of A's simplices.
    """
    x, a, r = [], [], []
    for n, level in enumerate(levels):
        rows = dense_boundary(levels, n)
        faces = levels[n - 1] if n else []
        x.append({
            j: {i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(len(level))
        })
        a.append({j: col for j, col in x[n].items() if level[j] in sub})
        r.append({
            j: {i: v for i, v in col.items() if faces[i] not in sub}
            for j, col in x[n].items() if level[j] not in sub
        })
    return x, a, r


def _reduced(vec, p):
    """The nonzero entries of a sparse vector over Z (p=0), Q (None) or Z_p."""
    return {i: y for i, x in vec.items() if (y := x % p if p else x)}


def _minus(x, f, y, p):
    """The sparse vector x - f * y over the ring."""
    out = dict(x)
    for i, c in y.items():
        out[i] = out.get(i, 0) - f * c
    return _reduced(out, p)


def _tagged_reduce(vec, tag, table, p):
    """``(vec, tag)`` less stored pairs until no stored vector has the
    largest index of ``vec``, its low; ``table`` maps lows to ``(vector,
    tag)`` pairs, each vector 1 at its low.  Both inputs are left as they
    were."""
    vec, tag = _reduced(vec, p), _reduced(tag, p)
    while vec and (low := max(vec)) in table:
        stored, stored_tag = table[low]
        f = vec[low]
        vec, tag = _minus(vec, f, stored, p), _minus(tag, f, stored_tag, p)
    return vec, tag


def tagged_add(vec, tag, table, p):
    """``_tagged_reduce``, then store the pair at its low, both scaled by the
    inverse of the entry there, if that entry is a unit: +-1 over Z (p=0),
    any nonzero one over Q (None) or Z_p.  Returns ``(vec, tag, stored)``,
    unscaled.  With every input column tagged ``{its index: 1}``, each
    stored tag gives its vector as a combination of the inputs."""
    vec, tag = _tagged_reduce(vec, tag, table, p)
    if not vec:
        return vec, tag, False
    low = max(vec)
    unit = vec[low]
    if p is None:
        inverse = 1 / Fraction(unit)
    elif p:
        inverse = pow(unit, p - 2, p)  # Fermat
    elif unit in (1, -1):
        inverse = unit
    else:
        return vec, tag, False
    table[low] = (
        _reduced({i: inverse * x for i, x in vec.items()}, p),
        _reduced({i: inverse * x for i, x in tag.items()}, p),
    )
    return vec, tag, True


def _tagged_rank(vectors, p):
    """The rank of sparse vectors over Q (p=None) or Z_p."""
    table = {}
    for vec in vectors:
        tagged_add(vec, {}, table, p)
    return len(table)


def integer_homology_oracle(bases):
    """(Betti number, torsion) per degree, without clearing.

    Every full boundary map goes to ``invariant_factors`` on its own.
    """
    factors = [
        invariant_factors(columns(IntegerMatrix.from_rows(dense_boundary(bases, n))))
        for n in range(len(bases) + 1)
    ]
    return [
        (len(basis) - len(factors[n]) - len(factors[n + 1]),
         tuple(d for d in factors[n + 1] if d > 1))
        for n, basis in enumerate(bases)
    ]


def field_betti_oracle(bases, p=None):
    """Betti numbers over Q (p=None) or Z_p, without clearing.

    Every full boundary map goes to ``dense_rref`` on its own.
    """
    ranks = [
        len(dense_rref(dense_boundary(bases, n), p)[1]) for n in range(len(bases) + 1)
    ]
    return [len(basis) - ranks[n] - ranks[n + 1] for n, basis in enumerate(bases)]


def field_complex_oracle(bases, p=None):
    """Homology representatives per degree over Q (p=None) or Z_p, bottom-up.

    No clearing: in each degree n ``tagged_add`` takes every column of the
    full boundary map of degree n + 1 into one table, keyed by positions in
    the bases and tagged with its column, and each column that reduces to
    zero leaves a cycle of degree n + 1.  The same table, with the
    boundaries' tags dropped, then takes the cycles of degree n in order; a
    cycle it stores is a representative.  Representatives are
    ``{position: coefficient}`` dicts.
    """
    hom_reps = []
    cycles = [{j: 1} for j in range(len(bases[0]))] if bases else []
    for n in range(len(bases)):
        table, next_cycles = {}, []
        rows = dense_boundary(bases, n + 1)
        for j in range(len(bases[n + 1]) if n + 1 < len(bases) else 0):
            col = {i: row[j] for i, row in enumerate(rows) if row[j]}
            vec, chain, _ = tagged_add(col, {j: 1}, table, p)
            if not vec:
                next_cycles.append(chain)
        # Boundaries are zero in homology: their tags no longer count.
        table = {i: (vec, {}) for i, (vec, _) in table.items()}
        reps = []
        for z in cycles:
            if tagged_add(z, {len(reps): 1}, table, p)[2]:
                reps.append(z)
        hom_reps.append(reps)
        cycles = next_cycles
    return hom_reps


class _FieldComplex:
    """Chain complex over a field with explicit homology coordinates, fed
    one degree at a time, top-down; it holds two tables of ``tagged_add``.

    ``reduce(columns)`` takes the columns of the next degree n on X's
    positions.  They go into a new table ``below``, for degree
    n - 1, tagged with their positions; one that reduces to zero leaves a
    cycle.  Clearing skips the lows of the boundaries of degree n + 1: their
    cycles lie in a boundary plus the earlier cycles.  The cycles then go
    into the table of degree n, which holds those boundaries untagged (they
    are zero in homology) and becomes ``span``; a cycle that is stored is a
    representative in ``reps``, tagged with its index, so every tag gives
    its vector's class in terms of the representatives.
    """

    def __init__(self, p):
        self.p, self.span, self.below, self.reps = p, {}, {}, []

    def reduce(self, columns):
        """Take the ``(position, column)`` pairs of the degree below ``span``."""
        p, span, below = self.p, self.below, {}
        cycles = []
        for j, col in columns:
            if j not in span:
                vec, chain, _ = tagged_add(col, {j: 1}, below, p)
                if not vec:
                    cycles.append(chain)
        for i, (vec, _) in below.items():
            below[i] = vec, {}
        reps = []
        for z in cycles:
            if tagged_add(z, {len(reps): 1}, span, p)[2]:
                reps.append(z)
        self.span, self.below, self.reps = span, below, reps

    def coords(self, chain):
        """Class of a cycle of the degree of ``span``, as
        ``{representative index: coefficient}``.

        A chain that is no cycle, or that leaves the basis, is refused.
        """
        vec, tag = _tagged_reduce(chain, {}, self.span, self.p)
        if vec:
            raise InputError("chain is not a cycle of the chain complex")
        # chain is a combination of stored vectors, each equal in homology
        # to its tag; the reduction subtracted that combination from the tag.
        return _reduced({h: -c for h, c in tag.items()}, self.p)


def _apply(columns, chain):
    """The image of ``chain`` under the map with these columns, zeros kept."""
    image = {}
    for j, c in chain.items():
        for i, v in columns[j].items():
            image[i] = image.get(i, 0) + c * v
    return image


def _kills(p, out, into):
    """Whether the classes ``out`` send each class of ``into`` to 0 over the
    field.  Class ``h`` of ``out`` is the image of representative ``h``."""
    return not any(_reduced(_apply(out, col), p) for col in into)


def les_chain_oracle(levels, sub=(), p=None):
    """The ``NodeReport``s of the long exact sequence of (X, A) over Q
    (p=None) or Z_p, from homology representatives and the maps of chains.

    ``levels`` are X's simplex lists and ``sub`` holds A's simplices.
    Chains are on X's positions.  Top-down, X's columns of each degree are built once.
    A takes those of its simplices (their faces are in A), X/A the others
    less A's faces.  Each node's map to the next is induced by a chain map
    that lowers the degree by 0 or 1: the inclusion of A, dropping the
    simplices of A, and the boundary in X of a relative cycle, which lies in
    A (``coords`` refuses it otherwise).  So once degree n is reduced,
    H{n+1}(X,A), H{n}(A) and H{n}(X) are checked, each for rank_in +
    rank_out = dim and for the composite of its two maps being zero;
    H0(X,A) maps to 0.
    """
    cx, ca, cr = (_FieldComplex(p) for _ in range(3))
    nodes, into, rank_in = [], [], 0  # the map into the next node, and its rank
    relative = []  # H{n+1}(X,A), with the boundaries in X of its representatives
    in_a = [{j for j, s in enumerate(level) if s in sub} for level in levels]
    for n in range(len(levels) - 1, -1, -1):
        pos = {s: i for i, s in enumerate(levels[n - 1])} if n else {}
        x = [
            {pos[s[:i] + s[i + 1 :]]: (-1) ** i for i in range(n + 1)} if n else {}
            for s in levels[n]
        ]
        keep, below = in_a[n], in_a[n - 1] if n else set()
        cx.reduce(enumerate(x))
        ca.reduce((j, c) for j, c in enumerate(x) if j in keep)
        cr.reduce(
            (j, {i: v for i, v in c.items() if i not in below})
            for j, c in enumerate(x) if j not in keep
        )
        dropped = [{j: c for j, c in z.items() if j not in keep} for z in cx.reps]
        for name, target, chains in (
            *relative, (f"H{n}(A)", cx, ca.reps), (f"H{n}(X)", cr, dropped)
        ):
            # The classes of the images of the representatives.
            out = [target.coords(z) for z in chains]
            rank_out, dim = _tagged_rank(out, p), len(chains)
            exact = rank_in + rank_out == dim and _kills(p, out, into)
            nodes.append(NodeReport(name, dim, rank_in, rank_out, exact))
            into, rank_in = out, rank_out
        relative = [(f"H{n}(X,A)", ca, [_apply(x, z) for z in cr.reps])]
    if levels:
        dim = len(cr.reps)
        nodes.append(NodeReport("H0(X,A)", dim, rank_in, 0, rank_in == dim))
    return nodes


class IntegerMatrix:
    """Sparse integer matrix: a map (row, col) -> nonzero integer."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"entry ({i}, {j}) out of range")
            if v:
                self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data):
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise InputError("ragged rows")
        cells = {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)}
        return cls(len(data), cols, cells)

    @classmethod
    def diagonal(cls, diag, rows, cols):
        return cls(rows, cols, {(i, i): v for i, v in enumerate(diag)})

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def to_rows(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def columns(a):
    """The columns of ``a`` as ``{row: value}`` dicts, for ``invariant_factors``."""
    return [{i: v for i, v in enumerate(col) if v} for col in zip(*a.to_rows())]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization u @ a @ v = diag(d) with d_i | d_{i+1}, d_i > 0."""

    d: tuple
    u: IntegerMatrix
    v: IntegerMatrix


def identity(n):
    return IntegerMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(a):
    entries = {(j, i): v for (i, j), v in a.entries.items()}
    return IntegerMatrix(a.cols, a.rows, entries)


def matmul(a, b):
    """The product of two IntegerMatrix objects."""
    if a.cols != b.rows:
        raise InputError("matrix shapes do not compose")
    rows_of_b = {}
    for (k, j), y in b.entries.items():
        rows_of_b.setdefault(k, []).append((j, y))
    product = {}
    for (i, k), x in a.entries.items():
        for j, y in rows_of_b.get(k, ()):
            product[i, j] = product.get((i, j), 0) + x * y
    return IntegerMatrix(a.rows, b.cols, product)


def column_reduce_rescan(columns):
    """``(lows, core)`` of the sparse integer ``{row: value}`` columns, as
    ``matrices._column_reduce`` returns them over Z, by its steps written
    out on copies: a column is reduced at its largest row while a stored
    vector has that low, and stored there, scaled to 1, if its entry is
    +-1, else set aside.  Each set-aside column is then reduced at its
    largest row that is a low, found by a rescan of the whole column after
    every subtraction."""
    table, aside = {}, []

    def subtract(col, f, stored):
        for i, x in stored.items():
            if y := col.get(i, 0) - f * x:
                col[i] = y
            else:
                del col[i]

    for col in map(dict, columns):
        while col and max(col) in table:
            low = max(col)
            subtract(col, col[low], table[low])
        if not col:
            continue
        v = col[max(col)]
        if v in (1, -1):
            table[max(col)] = {i: x * v for i, x in col.items()}
        else:
            aside.append(col)
    for col in aside:
        while (low := max((i for i in col if i in table), default=None)) is not None:
            subtract(col, col[low], table[low])
    rows = sorted({i for col in aside for i in col})
    return list(table), [[col.get(i, 0) for i in rows] for col in aside if col]


def smith_normal_form(a):
    """Smith normal form with its transforms, by Euclidean steps on dense rows.

    Each round moves an entry of least absolute value to the pivot, clears
    its row and column by integer quotients and repeats while a remainder is
    left; a pivot that does not divide the rest of the block takes in a row
    that it fails to divide.  Row moves act on u, column moves on v.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(i, k, q):  # row i += q * row k
        for x in (d, u):
            x[i] = [s + q * t for s, t in zip(x[i], x[k])]

    def add_col(j, k, q):  # column j += q * column k
        for x in (d, v):
            for row in x:
                row[j] += q * row[k]

    t = 0
    while t < min(m, n):
        block = [
            (abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]
        ]
        if not block:
            break
        _, i, j = min(block)
        d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
        for x in (d, v):
            for row in x:
                row[t], row[j] = row[j], row[t]
        pivot = d[t][t]
        for i in range(t + 1, m):
            add_row(i, t, -(d[i][t] // pivot))
        for j in range(t + 1, n):
            add_col(j, t, -(d[t][j] // pivot))
        if any(d[i][t] for i in range(t + 1, m)) or any(d[t][t + 1 :]):
            continue
        bad = [i for i in range(t + 1, m) if any(x % pivot for x in d[i][t + 1 :])]
        if bad:
            add_row(t, bad[0], 1)
            continue
        if pivot < 0:
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
        t += 1
    u, v = IntegerMatrix.from_rows(u), IntegerMatrix.from_rows(v)
    return SmithForm(tuple(d[i][i] for i in range(t)), u, v)


def determinant(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise InputError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def find_isomorphism(g, h):
    """A vertex bijection carrying edges exactly, or None (brute force)."""
    if g.n != h.n:
        return None
    # Every vertex has a loop, and edges() skips the loops.
    g_edges = {*g.edges(), *((v, v) for v in range(g.n))}
    h_edges = {*h.edges(), *((v, v) for v in range(h.n))}
    if len(g_edges) != len(h_edges):
        return None
    g_deg = sorted((len(out_set(g, v)), len(in_set(g, v))) for v in range(g.n))
    h_deg = sorted((len(out_set(h, v)), len(in_set(h, v))) for v in range(h.n))
    if g_deg != h_deg:
        return None
    for perm in permutations(range(g.n)):
        if all((perm[u], perm[v]) in h_edges for u, v in g_edges) and len(
            g_edges
        ) == len(h_edges):
            if {(perm[u], perm[v]) for u, v in g_edges} == h_edges:
                return perm
    return None


def _vertex_set(g, a):
    """An iterable of vertices of ``g`` as a sorted duplicate-free tuple."""
    vs = tuple(sorted(set(a)))
    for v in vs:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for {g.n} vertices")
    return vs


def out_set(g, u):
    """The vertices that ``u`` has an edge to, ``u`` included, ascending."""
    return tuple(v for v in range(g.n) if g.has_edge(u, v))


def in_set(g, u):
    """The vertices with an edge to ``u``, ``u`` included, ascending."""
    return tuple(v for v in range(g.n) if g.has_edge(v, u))


def closure_of(g, a):
    """Union of out-neighborhoods over ``a``; contains ``a`` by reflexivity."""
    return tuple(sorted({y for x in _vertex_set(g, a) for y in out_set(g, x)}))


def interior_of(g, a):
    """Complement of the closure of the complement; always inside ``a``."""
    a = _vertex_set(g, a)
    closed = closure_of(g, set(range(g.n)).difference(a))
    return tuple(sorted(set(range(g.n)).difference(closed)))


def minimal_neighborhood(g, x):
    """In-neighborhood of ``x``: the smallest set whose interior contains x."""
    _vertex_set(g, [x])
    return in_set(g, x)


def is_interior_cover(g, family):
    """True iff the interiors of the family's members cover every vertex."""
    covered = set()
    for a in family:
        covered.update(interior_of(g, a))
    return len(covered) == g.n


def induced_subgraph(g, a):
    """The digraph on ``a`` re-indexed to 0..|a|-1, keeping exactly g's
    edges and inheriting its labels, with the sorted vertex tuple of ``a``:
    vertex i of the digraph is vertex ``a[i]`` of ``g``."""
    a = _vertex_set(g, a)
    if not a:
        raise InputError("induced subgraph needs a nonempty vertex set")
    pos = {v: i for i, v in enumerate(a)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    labels = tuple(map(g.labels.__getitem__, a)) if g.labels is not None else None
    return Digraph.from_edge_list(len(a), edges, labels=labels), a


def is_symmetric(g):
    """True iff every edge is bidirected (u -> v implies v -> u)."""
    return all(g.has_edge(v, u) for u, v in g.edges())


def interior_by_neighborhoods(g, a):
    """Interior of a vertex set: the vertices whose in-set lies inside it."""
    aset = set(a)
    return tuple(v for v in range(g.n) if set(in_set(g, v)) <= aset)


def euler_characteristic(fv):
    return sum((-1) ** n * c for n, c in enumerate(fv))


def brute_force_certificate(k, g):
    """Continuity certificate of ``k`` over ``g``, walking every subset.

    For each simplex in order and each nonempty subset tau of it (by size,
    then lexicographically), every member of tau needs an edge to the member
    last in the witness.  Returns the same ``CertificateReport`` as the
    package: the first failing subset ends the walk.
    """
    from dvrhom.fxmap import CertificateReport

    checks = 0
    count = 0
    witness = witness_dict(k)
    for s in k.simplices():
        count += 1
        pos = {v: i for i, v in enumerate(witness[s])}
        for size in range(1, len(s) + 1):
            for tau in combinations(s, size):
                checks += 1
                target = max(tau, key=pos.__getitem__)
                for v in tau:
                    if not g.has_edge(v, target):
                        return CertificateReport(
                            False, count, checks, (s, tau, v, target)
                        )
    return CertificateReport(True, count, checks, None)


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


def _stored_witness(k, verts):
    verts = tuple(sorted(verts))
    if 0 < len(verts) <= len(k.by_dimension):
        level = k.by_dimension[len(verts) - 1]
        if verts in level:
            return k.orders[len(verts) - 1][level.index(verts)]
    raise InputError(f"{verts} is not a simplex of the complex")


def point_in(k, verts, coords):
    """Realization point on a simplex of ``k``, using its stored witness."""
    return RealizationPoint(_stored_witness(k, verts), coords)


def barycenter(k, verts):
    n = len(verts)
    return RealizationPoint(_stored_witness(k, verts), (Fraction(1, n),) * n)


def tie_set(p):
    """Vertices achieving the maximal coordinate, ascending; exact compare."""
    top = max(p.coords)
    return tuple(sorted(v for v, c in zip(p.witness, p.coords) if c == top))


def evaluate_fx(p):
    """f_X at ``p``, relative to its carrier: the vertex of the largest
    coordinate, and among tied vertices the one last in the witness."""
    top = max(p.coords)
    return [v for v, c in zip(p.witness, p.coords) if c == top][-1]


def carrier_point(k, p):
    """Push a point with zero coordinates down to its minimal face carrier."""
    support = {v: c for v, c in zip(p.witness, p.coords) if c > 0}
    if len(support) == len(p.witness):
        return p
    w = _stored_witness(k, support)
    return RealizationPoint(w, tuple(support[v] for v in w))


def digital_image_oracle(points):
    """Lattice points joined both ways iff every coordinate differs by at
    most 1, by testing every pair of points."""
    pts = [tuple(p) for p in points]
    edges = []
    for i, j in combinations(range(len(pts)), 2):
        if all(abs(a - b) <= 1 for a, b in zip(pts[i], pts[j])):
            edges += [(i, j), (j, i)]
    labels = [",".join(str(c) for c in p) for p in pts]
    return Digraph.from_edge_list(len(pts), edges, labels=labels)


def edge_path_oracle(k, basepoint):
    """The edge-path presentation before any Tietze move, from definitions.

    A breadth-first tree from ``basepoint`` takes neighbours in ascending
    order; each edge {u, v} off the tree, in the order of
    ``k.by_dimension[1]``, is a generator ``g{u}_{v}`` read from u to v.
    Each triangle abc gives the word ab . bc . (ac)^-1, with the tree
    letters deleted.
    """
    edges = [tuple(e) for e in k.by_dimension[1]] if len(k.by_dimension) > 1 else []
    neighbours = {s[0]: set() for s in k.by_dimension[0]}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    tree, seen, queue = set(), {basepoint}, deque([basepoint])
    while queue:
        u = queue.popleft()
        for w in sorted(neighbours[u]):
            if w not in seen:
                seen.add(w)
                tree.add(frozenset((u, w)))
                queue.append(w)
    off_tree = [e for e in edges if frozenset(e) not in tree]

    def letter(u, v):
        for g, e in enumerate(off_tree, start=1):
            if e == (u, v):
                return [g]
            if e == (v, u):
                return [-g]
        return []

    triangles = k.by_dimension[2] if len(k.by_dimension) > 2 else []
    relators = [
        letter(a, b) + letter(b, c) + [-x for x in reversed(letter(a, c))]
        for a, b, c in triangles
    ]
    return [f"g{u}_{v}" for u, v in off_tree], relators


def _free_cancel(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclic_cancel(word):
    w = _free_cancel(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = _free_cancel(w[1:-1])
    return w


def tietze_oracle(symbols, relators):
    """Tietze elimination by rescanning and rewriting every relator per move.

    Each pass drops empty relators, takes the first relator holding a
    generator that occurs once in it, solves it for the smallest such
    generator, substitutes that into every other relator (cyclically
    reduced) and renumbers the generators above it.
    """
    relators = [_cyclic_cancel(w) for w in relators]
    symbols = list(symbols)
    while True:
        relators = [w for w in relators if w]
        target = None
        for ri, word in enumerate(relators):
            counts = {}
            for x in word:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            singles = sorted(h for h, c in counts.items() if c == 1)
            if singles:
                target = (ri, singles[0])
                break
        if target is None:
            return symbols, relators
        ri, g = target
        word = list(relators[ri])
        pos = next(i for i, x in enumerate(word) if abs(x) == g)
        word = word[pos:] + word[:pos]
        tail = word[1:]
        if word[0] == g:
            replacement = [-x for x in reversed(tail)]
        else:
            replacement = tail
        inverse = [-x for x in reversed(replacement)]
        out = []
        for rj, other in enumerate(relators):
            if rj == ri:
                continue
            new = []
            for x in other:
                if x == g:
                    new.extend(replacement)
                elif x == -g:
                    new.extend(inverse)
                else:
                    new.append(x)
            out.append(_cyclic_cancel(new))
        relators = [
            [x - 1 if x > g else x + 1 if x < -g else x for x in w] for w in out
        ]
        symbols = symbols[: g - 1] + symbols[g:]


@functools.lru_cache(maxsize=None)
def cli_parser_oracle():
    """The argparse parser of ``dvrhom``, one call per option."""
    # Built on first use and shared by every later call: parse_args keeps no
    # state between calls, and building the parser costs far more than using
    # it.  ``commands`` maps each command name to its own parser.
    parser = argparse.ArgumentParser(
        prog="dvrhom",
        description="Homology of finite digraphs via directed Vietoris-Rips complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated digraph document")
    gsub = gen.add_subparsers(dest="generator", required=True)
    g_circ = gsub.add_parser("circulant")
    g_circ.add_argument("--n", type=int, required=True)
    g_circ.add_argument("--m", type=int, required=True)
    g_dig = gsub.add_parser("digital")
    g_dig.add_argument(
        "--points",
        required=True,
        help="semicolon-separated lattice points, e.g. '1,0;0,1;-1,0'",
    )
    g_fig = gsub.add_parser("figure")
    g_fig.add_argument("--which", choices=("left", "middle", "right"), required=True)
    g_rand = gsub.add_parser("random")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--p", type=float, required=True)
    g_rand.add_argument("--seed", type=int, default=0)
    for p in (g_circ, g_dig, g_fig, g_rand):
        p.add_argument("--out")

    def io_command(name, **kwargs):
        c = sub.add_parser(name, **kwargs)
        c.add_argument("--format", choices=("json", "edgelist"), default="json")
        c.add_argument("--out")
        return c

    cx = io_command("complex", help="build the complex, emit f-vector and witnesses")
    cx.add_argument("--max-dim", type=int, default=None)

    hom = io_command("homology", help="homology groups of the complex")
    hom.add_argument("--coeff", default="z")
    hom.add_argument("--reduced", action="store_true")
    hom.add_argument("--max-dim", type=int, default=None)

    pair = io_command("pair", help="relative homology against a vertex subset")
    pair.add_argument("--subset", required=True)

    les = io_command("les-check", help="long-exact-sequence exactness report")
    les.add_argument("--subset", required=True)
    les.add_argument("--coeff", default="q")

    pi1 = io_command("pi1", help="fundamental group presentation")
    pi1.add_argument("--basepoint", type=int, default=0)

    io_command("fx-certify", help="combinatorial continuity certificate")

    fxs = io_command("fx-sample", help="sampled continuity check")
    fxs.add_argument("--samples", type=int, default=1000)
    fxs.add_argument("--delta", default="1/1000")
    fxs.add_argument("--seed", type=int, default=0)
    parser.commands = dict(sub.choices)
    return parser
