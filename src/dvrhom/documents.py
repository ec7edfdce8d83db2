"""JSON documents: the digraph and complex documents and the reports.

A digraph document has the keys ``vertices`` and ``edges``, a complex
document (the output of ``complex``) the keys ``f_vector``, ``simplices``
and ``truncated``.  ``_read_document`` reads either, and checks the shape
of every key the commands read, and gives the input digest of what it
read.  A digraph document's keys are checked in bulk, by the set of the
types of their items (and of the edges' lengths and entries), and its edges
read in one walk (``_edge_walk``): each step looks up the vertices of a
label pair, sets their out- and in-masks and records the edge's key in the
canonical edge order.  Only a document with an entry that is not one of
its labels, an int or float entry or an unknown label, has its edges
resolved first by ``_resolve``, one entry at a time, which resolves such an
entry or raises the error it is due; the walk then takes the vertices.
Every error is found before a mask is allocated.  A complex document's
``simplices`` are read in bulk too, each check made once
(``_read_complex``): their shapes by type sets; their faces from the sorted
witnesses when every item has one and those equal the ``verts`` lists,
which also shows every witness an ordering, else from the sorted ``verts``
with the witnesses compared with them; then one dict per size from face
to witness (``_by_size``), where a face listed twice shows.
``from_faces_by_size`` closes those a level at a time and reads the levels
and ``orders`` off them, and a repeated vertex shows as a pair (x, x)
among the closed 2-faces.  Only a failed shape check or such a pair has
the items walked, by ``_raise_first_bad_item``, to name the first that is
ill-shaped or repeats a vertex; every later error is raised from the bulk
data.

Every report, error reports included, is written by ``_dumps``: the text
``json.dumps`` gives with sorted keys and a two-space indent, made without
json's pure-Python indenting encoder.  Strings go through the C string
encoder.

A complex document holds its ``simplices`` as a ``_Simplices`` record of
the complex's levels and ``orders``, with no object per simplex.  All
simplices of one level have the same number of vertices, so one ``%``
call writes a level: its ``%d`` template (``_simplex_template``) repeated
once per simplex, over its vertex and witness ints in one tuple.
Likewise every node of a ``les-check`` report has the same five fields, so
its ``nodes`` list, a ``_Nodes`` of ``NodeReport``s, is written field by
field from one template per indent (``_write_nodes``).
``_write_simplices`` lays the levels out in two layouts: the indented one
of ``_dumps``, for the ``simplices`` list of a complex document, and the
compact one of ``_canonical``, for the input digest.

An input digest is the sha256 of the compact, key-sorted JSON text of the
canonical reconstruction of the input, so reordered edges or an edgelist
spelling of the same digraph hash identically.  A complex's text is hashed
level by level (``_complex_digest``), without building its document.  A
digraph's text is joined from its labels, each quoted once by the C string
encoder: ``{"edges":[...],"vertices":[...]}`` with its edges as sorted
``[label, label]`` pairs.  ``_ranks`` gives that order as one integer key
per edge, ``rank[u] * n + rank[v]`` of its labels' ranks; ``_edge_walk``
records the keys as it reads the edges, ``_read_edges`` hashes them for
both input formats, and ``_digraph_doc``, which ``gen`` writes, lists the
edges of a built digraph in their order.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii

from .complexes import SimplicialComplex, f_vector
from .digraph import _MAX_VERTICES, Digraph, InputError, _check_order

SCHEMA = "1"


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj):
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dumps(obj):
    """The text of ``obj`` as ``json.dumps`` writes it with ``sort_keys=True``
    and a two-space indent, plus a newline.

    Dicts, lists and tuples are recognised by exact type, and dict keys
    must be strings.  Floats and other scalars without a table entry go to
    ``json.dumps`` one at a time.
    """
    chunks = []
    _write(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(x, nl, out):
    # ``nl`` is the newline and indent of the line x starts on.
    t = type(x)
    if t is dict or t is list or t is tuple:
        if not x:
            out("{}" if t is dict else "[]")
            return
        inner = nl + "  "
        comma = "," + inner
        if t is dict:
            sep = "{" + inner
            for key in sorted(x):
                out(sep)
                out(encode_basestring_ascii(key))
                out(": ")
                _write(x[key], inner, out)
                sep = comma
            out(nl + "}")
        else:
            sep = "[" + inner
            for item in x:
                out(sep)
                _write(item, inner, out)
                sep = comma
            out(nl + "]")
    elif t is str:
        out(encode_basestring_ascii(x))
    elif t is int:
        out(int.__repr__(x))
    elif t is bool or x is None:
        out(_CONSTANTS[x])
    elif t is _Simplices:
        _write_simplices(x.levels, x.orders, nl, out)
    elif t is _Nodes:
        _write_nodes(x, nl, out)
    else:
        out(json.dumps(x))


# The ``simplices`` list of a complex document, as the complex's ``levels``
# and their witness ``orders``: ``_write`` writes it level by level.
_Simplices = namedtuple("_Simplices", "levels orders")


class _Nodes(list):
    """The ``nodes`` list of a ``les-check`` report: one ``NodeReport`` per
    node, written as an object with the keys ``dim``, ``exact``, ``name``,
    ``rank_in`` and ``rank_out``, an int, a bool, a string and two ints.
    ``_write`` writes every node from one template (``_write_nodes``)."""

    __slots__ = ()


_NODE_FIELDS = (
    '"dim": %d', '"exact": %s', '"name": %s', '"rank_in": %d', '"rank_out": %d'
)


def _write_nodes(nodes, nl, out):
    """Write a ``_Nodes`` list as ``_dumps`` does on the line ``nl`` starts:
    every node from one template of its five values, in key order."""
    if not nodes:
        out("[]")
        return
    inner, key = nl + "  ", "," + nl + "    "
    item = "{" + key[1:] + key.join(_NODE_FIELDS) + inner + "}"
    quote, word = encode_basestring_ascii, _CONSTANTS
    text = [
        item % (n.dim, word[n.exact], quote(n.name), n.rank_in, n.rank_out)
        for n in nodes
    ]
    out("[" + inner + ("," + inner).join(text) + nl + "]")


def _simplex_template(size, nl):
    """One simplex with ``size`` vertices as a template of its ``verts``,
    then its ``witness``, in ``%d`` fields: compact when ``nl`` is None,
    else as ``_dumps`` indents an item on the line ``nl`` starts."""
    if nl is None:
        ints = "[" + ",".join(["%d"] * size) + "]"
        return '{"verts":' + ints + ',"witness":' + ints + "}"
    key, entry = nl + "  ", nl + "    "
    ints = "[" + entry + ("," + entry).join(["%d"] * size) + key + "]"
    return "{" + key + '"verts": ' + ints + "," + key + '"witness": ' + ints + nl + "}"


def _write_simplices(levels, orders, nl, out):
    """Write the ``simplices`` list of a complex from its ``levels`` and
    their witness ``orders``, level by level: as
    ``_canonical`` does when ``nl`` is None, else as ``_dumps`` does on the
    line ``nl`` starts."""
    if not levels:
        out("[]")
        return
    if nl is None:
        inner, sep, comma, close = None, "[", ",", "]"
    else:
        inner = nl + "  "
        sep, comma, close = "[" + inner, "," + inner, nl + "]"
    for level, witnesses in zip(levels, orders):
        item = _simplex_template(len(level[0]), inner)
        values = tuple(chain.from_iterable(map(operator.add, level, witnesses)))
        out(sep)
        out(comma.join([item] * len(level)) % values)
        sep = comma
    out(close)


def _ranks(labels):
    """The canonical edge order of a digraph on ``labels``, n distinct
    strings: the labels sorted, and each vertex's rank among them.  An edge
    (u, v) has the key ``rank[u] * n + rank[v]``, so the keys ascend as the
    sorted ``[label, label]`` lists do."""
    ranked = sorted(labels)
    return ranked, list(map(dict(zip(ranked, range(len(labels)))).__getitem__, labels))


def _edge_walk(labels, index, pairs):
    """One walk of the edge list ``pairs`` on the vertices ``labels``, n
    distinct strings, each entry a key of ``index`` (a label dict, or
    ``range(n)`` for vertex indices).  Returns the out- and in-masks of the
    spatial digraph, the labels sorted, and the keys (``_ranks``) of its
    edges other than loops, ascending; a repeated edge has one key."""
    n = len(labels)
    ranked, rank = _ranks(labels)
    bits = [1 << v for v in range(n)]
    out, inc, keys = bits.copy(), bits.copy(), set()
    add = keys.add
    for a, b in pairs:
        u, v = index[a], index[b]
        out[u] |= bits[v]
        inc[v] |= bits[u]
        add(rank[u] * n + rank[v])
    keys.difference_update(range(0, n * n, n + 1))  # the loops' keys
    return out, inc, ranked, sorted(keys)


def _read_edges(labels, index, pairs):
    """The out- and in-masks of an edge list, as ``_edge_walk`` takes it,
    and its input digest: the ``_digest`` of the vertices and edges of its
    digraph document, hashed from the compact text joined from the quoted
    labels."""
    n = len(labels)
    out, inc, ranked, keys = _edge_walk(labels, index, pairs)
    quoted = list(map(encode_basestring_ascii, ranked))
    heads = ["[" + q + "," for q in quoted]
    tails = [q + "]" for q in quoted]
    text = ",".join([heads[k // n] + tails[k % n] for k in keys])
    vertices = ",".join(map(encode_basestring_ascii, labels))
    text = '{"edges":[' + text + '],"vertices":[' + vertices + "]}"
    return out, inc, hashlib.sha256(text.encode()).hexdigest()


def _digraph_doc(g):
    """The digraph document of ``g``, its edges in canonical order.  An
    unlabeled digraph is labelled by its vertex indices as strings."""
    n = g.n
    labels = list(g.labels or map(str, range(n)))
    ranked, rank = _ranks(labels)
    keys = sorted(rank[u] * n + rank[v] for u, v in g.edges())
    edges = [[ranked[k // n], ranked[k % n]] for k in keys]
    return {"schema": SCHEMA, "vertices": labels, "edges": edges}


_LABEL = frozenset({str, int, float})  # so no bool either
_INT = frozenset({int})
_LIST = frozenset({list})
_DICT = frozenset({dict})
_PAIR = frozenset({2})


_BAD_SIMPLICES = (
    "'simplices' must be a list of objects with integer lists \"verts\" and"
    ' (optional) "witness"'
)


def _read_document(text):
    """Parse a JSON document and check the shape of every key the CLI reads.

    Returns ("complex", complex, input digest) for a document with
    ``simplices``, and ("digraph", digraph, input digest) for one with
    ``vertices`` or ``edges``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed json input: {e}") from None
    except RecursionError:
        raise InputError("json input is nested too deeply") from None
    except ValueError:  # json reads ints with int(), which refuses long ones
        raise InputError(
            "json input has an integer longer than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None
    if type(doc) is not dict:
        raise InputError("input json must be an object")
    mixed = [key for key in ("simplices", "vertices", "edges") if key in doc]
    if "simplices" in doc and len(mixed) > 1:
        raise InputError(
            "input json mixes complex and digraph keys: " + ", ".join(map(repr, mixed))
        )
    vertices, edges = doc.get("vertices", []), doc.get("edges", [])
    if type(vertices) is not list or not _LABEL.issuperset(map(type, vertices)):
        raise InputError("'vertices' must be a list of vertex labels")
    if (
        type(edges) is not list
        or not _LIST.issuperset(map(type, edges))
        or not _PAIR.issuperset(map(len, edges))
        or not _LABEL.issuperset(map(type, chain.from_iterable(edges)))
    ):
        raise InputError("'edges' must be a list of [u, v] label pairs")
    if "simplices" in doc:
        k = _read_complex(doc["simplices"], doc.get("truncated", False))
        return "complex", k, _complex_digest(k)
    _check_truncated(doc.get("truncated", False))
    if "edges" in doc or "vertices" in doc:
        return ("digraph", *_digraph_from_doc(vertices, edges))
    raise InputError("input json is neither a digraph nor a complex document")


def _check_truncated(truncated):
    if type(truncated) is not bool:
        raise InputError("'truncated' must be true or false")


def _read_complex(items, truncated):
    """The complex of a ``simplices`` list, each check made once, or the
    first error of the list, in this order: the first item that is
    ill-shaped or repeats a vertex, then a bad ``truncated``, then a face
    given two witnesses, then an empty ``verts``, then the first witness
    that is not an ordering.

    When every item has a witness and the sorted witnesses equal the
    ``verts`` lists, that one comparison shows each ``verts`` sorted and
    each witness an ordering of it.  A face without a witness is its own,
    unless another item gives it one.  A sorted face that repeats a vertex x
    holds the pair (x, x), so once ``from_faces_by_size`` has closed the
    faces, the 2-faces hold such a pair exactly when some ``verts`` repeats
    a vertex.
    """
    if type(items) is not list:
        raise InputError(_BAD_SIMPLICES)
    if not _DICT.issuperset(map(type, items)):
        _raise_first_bad_item(items)
    verts = list(map(dict.get, items, repeat("verts")))
    has = list(map(dict.__contains__, items, repeat("witness")))
    orders = list(map(operator.itemgetter("witness"), compress(items, has)))
    if not (
        _LIST.issuperset(map(type, chain(verts, orders)))
        and _INT.issuperset(map(type, chain.from_iterable(chain(verts, orders))))
    ):
        _raise_first_bad_item(items)
    sorted_orders = list(map(tuple, map(sorted, orders)))
    if len(orders) == len(items) and list(map(tuple, verts)) == sorted_orders:
        faces = witnessed = sorted_orders
        ordered = True
    else:
        faces = list(map(tuple, map(sorted, verts)))
        witnessed = list(compress(faces, has))
        ordered = witnessed == sorted_orders
    orders = list(map(tuple, orders))
    bare = list(compress(faces, map(operator.not_, has))) if False in has else []
    by_size = _by_size(bare + witnessed, bare + orders)  # a given witness wins
    listed_twice = sum(map(len, by_size.values())) < len(faces)
    empty = by_size.pop(0, None)
    k = SimplicialComplex.from_faces_by_size(by_size)
    if any(a == b for a, b in by_size.get(2, ())):
        _raise_first_bad_item(items)
    _check_truncated(truncated)
    if listed_twice:
        first = dict(zip(reversed(witnessed), reversed(orders)))
        for s, w in zip(witnessed, orders):
            if first[s] != w:
                raise InputError(f"'simplices' gives two witnesses for {list(s)}")
    if empty is not None:
        raise InputError("simplices must be nonempty")
    if not ordered:
        for s, w in zip(witnessed, orders):
            if tuple(sorted(w)) != s:
                raise InputError(f"witness {w} is not an ordering of {s}")
    k.truncated = truncated
    return k


def _raise_first_bad_item(items):
    """Raise the error of the first item of ``items`` that is ill-shaped or
    repeats a vertex; a bulk check of ``_read_complex`` showed there is one."""
    for i, item in enumerate(items):
        verts = item.get("verts") if type(item) is dict else None
        if type(verts) is not list or not _INT.issuperset(map(type, verts)):
            raise InputError(_BAD_SIMPLICES)
        if len(set(verts)) != len(verts):
            raise InputError(f"'simplices' item {i} repeats a vertex: {verts}")
        witness = item.get("witness", [])
        if type(witness) is not list or not _INT.issuperset(map(type, witness)):
            raise InputError(_BAD_SIMPLICES)
    raise AssertionError("unreachable: a failed bulk check has a bad item")


def _by_size(faces, witnesses):
    """``{size: {face: witness}}`` of the sorted tuples ``faces`` and their
    ``witnesses``, where the last witness given a face is kept.  Faces in
    size order, as ``complex`` writes them, are grouped without a sort."""
    sizes = list(map(len, faces))
    ranked = sorted(sizes)
    if sizes != ranked:
        perm = sorted(range(len(sizes)), key=sizes.__getitem__)
        faces, witnesses = [list(map(x.__getitem__, perm)) for x in (faces, witnesses)]
    by_size, lo = {}, 0
    while lo < len(ranked):
        hi = bisect_right(ranked, ranked[lo], lo)
        by_size[ranked[lo]] = dict(zip(faces[lo:hi], witnesses[lo:hi]))
        lo = hi
    return by_size


def _digraph_from_doc(vertices, pairs):
    """The digraph of a document's shape-checked ``vertices`` and ``edges``,
    and its input digest.  A repeated label is refused first, then the
    first edge entry that names no vertex or two, then a vertex count over
    the limit, all before ``_read_edges`` allocates a mask."""
    labels = list(map(str, vertices))
    n = len(labels)
    index = dict(zip(labels, range(n)))
    if len(index) != n:
        raise InputError("vertex labels must be unique")
    if not index.keys() >= set(chain.from_iterable(pairs)):
        # an int or float entry, or an unknown label
        pairs = [(_resolve(u, index), _resolve(v, index)) for u, v in pairs]
        index = range(n)
    _check_order(n)
    out, inc, digest = _read_edges(labels, index, pairs)
    return Digraph(n, out, inc, tuple(labels) or None), digest


def _resolve(entry, index):
    """The vertex an edge entry names: the vertex with that label, else an
    int entry's index, else the vertex labelled ``str(entry)``."""
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


_COUNT_DIGITS = len(str(_MAX_VERTICES))


def _vertex_count(digits):
    """The vertex count written in the decimal ``digits``.  One with more
    digits than ``_MAX_VERTICES``, leading zeros aside, exceeds it, and is
    refused before ``int()``, which refuses more than 4,300 digits."""
    if any(map(int, digits[:-_COUNT_DIGITS])):
        raise InputError(
            f"{digits.lstrip('0')} vertices exceed the limit of {_MAX_VERTICES}"
        )
    return int(digits[-_COUNT_DIGITS:])


def _parse_edgelist(text):
    """The digraph of an edgelist, unlabeled, and its input digest, which
    labels each vertex by its index as a string."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1 or not fields[0].isdecimal():
                raise InputError(f"line {lineno}: expected the vertex count")
            n = _vertex_count(fields[0])
            continue
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:  # a field that is not decimal digits leaves fewer than two
            u, v = map(int, filter(str.isdecimal, fields))
        except ValueError:
            raise InputError(f"line {lineno}: expected two integers") from None
        if u >= n or v >= n:
            raise InputError(
                f"line {lineno}: edge ({u}, {v}) out of range for {n} vertices"
            )
        edges.append((u, v))
    if n is None:
        raise InputError("empty edgelist input")
    _check_order(n)
    out, inc, digest = _read_edges(list(map(str, range(n))), range(n), edges)
    return Digraph(n, out, inc), digest


def parse_digraph(source, format="json"):
    """Parse a digraph document ('json') or an edgelist ('edgelist').

    A complex document is refused, as the digraph-only commands refuse it.
    """
    if format == "edgelist":
        return _parse_edgelist(source)[0]
    if format == "json":
        kind, g, _ = _read_document(source)
        if kind == "complex":
            raise InputError("expected a digraph document, got a complex document")
        return g
    raise InputError(f"unknown input format {format!r}")


def _complex_doc(k):
    return {
        "schema": SCHEMA,
        "f_vector": f_vector(k),
        "simplices": _Simplices(k.by_dimension, k.orders),
        "truncated": k.truncated,
    }


def _complex_digest(k):
    """``_digest`` of the f-vector and simplices of ``_complex_doc(k)``,
    hashed one level at a time."""
    h = hashlib.sha256()
    h.update(f'{{"f_vector":{_canonical(list(f_vector(k)))},"simplices":'.encode())
    _write_simplices(k.by_dimension, k.orders, None, lambda text: h.update(text.encode()))
    h.update(b"}")
    return h.hexdigest()

