"""JSON documents: the digraph and complex documents and the reports.

A digraph document has the keys ``vertices`` and ``edges``, a complex
document (the output of ``complex``) the keys ``f_vector``, ``simplices``
and ``truncated``.  ``_read_document`` reads either, and checks the shape
of every key the commands read.  A digraph document's keys are checked in
bulk, by the set of the types of their items (and of the edges' lengths
and entries), and its edges resolved by one label lookup per entry.  Only
a document with an int or float entry, or an unknown label, has its edges
walked again by ``_resolve``, one entry at a time, which resolves such an
entry or raises the error it is due.  A complex document's ``simplices``
are read in bulk too, each check made once (``_read_in_bulk``): their
shapes by type sets; their faces from the sorted witnesses when every item
has one and those equal the ``verts`` lists, which also shows every witness
an ordering, else from the sorted ``verts`` with the witnesses compared
with them; a clash by one witness dict.  Then
``SimplicialComplex.from_faces_by_size`` closes the faces a level at a
time, and a repeated vertex shows as a pair (x, x) among the closed
2-faces.  Only a list that fails is walked item by item
(``_read_complex``), to raise or name its first error.

Every report, error reports included, is written by ``_dumps``: the text
``json.dumps`` gives with sorted keys and a two-space indent, made without
json's pure-Python indenting encoder.  Strings go through the C string
encoder.

All simplices of one level have the same number of vertices, so one ``%d``
template per level (``_simplex_template``) writes every simplex of it.
Likewise every node of a ``les-check`` report has the same five keys, so
its ``nodes`` list, a ``_Nodes``, is written from one template per indent
(``_write_nodes``).
``_write_simplices`` lays the levels out in two layouts: the indented one
of ``_dumps``, for the ``simplices`` list of a complex document, and the
compact one of ``_canonical``, for the input digest.

An input digest is the sha256 of the compact, key-sorted JSON text of the
canonical reconstruction of the input, so reordered edges or an edgelist
spelling of the same digraph hash identically.  A complex's text is hashed
level by level (``_complex_digest``), without building its document.  A
digraph's text (``_digraph_digest``) is joined from its labels, each quoted
once by the C string encoder: ``{"edges":[...],"vertices":[...]}`` with its
edges as sorted ``[label, label]`` pairs.  ``_ranked_edges`` gives that
order by sorting the labels once and then each edge as one integer key of
their ranks; ``_digraph_doc``, which ``gen`` writes, takes the same order.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from itertools import chain, compress, groupby, repeat
from json.encoder import encode_basestring_ascii

from .complexes import SimplicialComplex, f_vector
from .digraph import _MAX_VERTICES, Digraph, InputError

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
        _write_simplices(x.levels, x.witness, nl, out)
    elif t is _Nodes:
        _write_nodes(x, nl, out)
    else:
        out(json.dumps(x))


class _Simplices(list):
    """The ``simplices`` list of a complex document: one ``{"verts",
    "witness"}`` dict per simplex, for readers of the report.  ``_write``
    writes it from ``levels`` and ``witness``, the complex's own tuples."""

    __slots__ = ("levels", "witness")


class _Nodes(list):
    """The ``nodes`` list of a ``les-check`` report: one dict per node, with
    the keys ``dim``, ``exact``, ``name``, ``rank_in`` and ``rank_out``,
    an int, a bool, a string and two ints.  ``_write`` writes every node
    from one template (``_write_nodes``)."""

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
        item
        % (d["dim"], word[d["exact"]], quote(d["name"]), d["rank_in"], d["rank_out"])
        for d in nodes
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


def _write_simplices(levels, witness, nl, out):
    """Write the ``simplices`` list of a complex, level by level: as
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
    for level in levels:
        item = _simplex_template(len(level[0]), inner)
        rows = map(operator.add, level, map(witness.__getitem__, level))
        out(sep)
        out(comma.join(map(item.__mod__, rows)))
        sep = comma
    out(close)


def _ranked_edges(g):
    """The canonical order of ``g``'s edges: its labels (the vertex indices
    as strings when it has none), those labels sorted, and each edge other
    than a loop as the key ``rank[u] * n + rank[v]`` of the labels' ranks,
    ascending, which is the order of the sorted ``[label, label]`` lists.
    The labels are strings, as every reader and generator makes them."""
    n = g.n
    labels = g.labels or tuple(map(str, range(n)))
    order = sorted(range(n), key=labels.__getitem__)
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    keys = []
    for u, mask in enumerate(map(g.out_mask, range(n))):
        mask &= ~(1 << u)
        base = rank[u] * n
        while mask:
            low = mask & -mask
            keys.append(base + rank[low.bit_length() - 1])
            mask ^= low
    keys.sort()
    return labels, [labels[v] for v in order], keys


def _digraph_doc(g):
    labels, ranked, keys = _ranked_edges(g)
    n = g.n
    edges = [[ranked[k // n], ranked[k % n]] for k in keys]
    return {"schema": SCHEMA, "vertices": list(labels), "edges": edges}


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

    Returns ("complex", complex) for a document with ``simplices``, and
    ("digraph", digraph) for one with ``vertices`` or ``edges``.
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
        return "complex", _read_complex(doc["simplices"], doc.get("truncated", False))
    _check_truncated(doc.get("truncated", False))
    if "edges" in doc or "vertices" in doc:
        return "digraph", _digraph_from_doc(vertices, edges)
    raise InputError("input json is neither a digraph nor a complex document")


def _check_truncated(truncated):
    if type(truncated) is not bool:
        raise InputError("'truncated' must be true or false")


def _read_complex(items, truncated):
    """The complex of a ``simplices`` list, read by ``_read_in_bulk``, or
    the first error of the list as an item-by-item walk finds it: the first
    item that is ill-shaped or repeats a vertex, then a bad ``truncated``,
    then a face given two witnesses, then an empty ``verts``, then the
    first witness that is not an ordering.  Only a list that the bulk read
    gives up on is walked.
    """
    if type(items) is not list:
        raise InputError(_BAD_SIMPLICES)
    k = _read_in_bulk(items, truncated)
    if k is not None:
        return k
    witnesses, clash = {}, None
    for i, item in enumerate(items):
        verts = item.get("verts") if type(item) is dict else None
        if type(verts) is not list or not _INT.issuperset(map(type, verts)):
            raise InputError(_BAD_SIMPLICES)
        face = tuple(sorted(verts))
        if len(set(face)) != len(face):
            raise InputError(f"'simplices' item {i} repeats a vertex: {verts}")
        if "witness" in item:
            witness = item["witness"]
            if type(witness) is not list or not _INT.issuperset(map(type, witness)):
                raise InputError(_BAD_SIMPLICES)
            witness = tuple(witness)
            if witnesses.setdefault(face, witness) != witness and clash is None:
                clash = face
    _check_truncated(truncated)
    if clash is not None:
        raise InputError(f"'simplices' gives two witnesses for {list(clash)}")
    # _read_in_bulk gives up on a well-shaped list without a clash only at
    # an empty verts.
    raise InputError("simplices must be nonempty")


def _read_in_bulk(items, truncated):
    """The complex of a ``simplices`` list, each check made once, or None
    for a list with an ill-shaped item, a repeated vertex, a clash or an
    empty ``verts``.

    When every item has a witness and the sorted witnesses equal the
    ``verts`` lists, that one comparison shows each ``verts`` sorted and
    each witness an ordering of it.  A sorted face that repeats a vertex x
    holds the pair (x, x), so once ``from_faces_by_size`` has closed the
    faces, the 2-faces hold such a pair exactly when some ``verts``
    repeats a vertex.
    """
    if not _DICT.issuperset(map(type, items)):
        return None
    verts = list(map(dict.get, items, repeat("verts")))
    has = list(map(dict.__contains__, items, repeat("witness")))
    orders = list(map(operator.itemgetter("witness"), compress(items, has)))
    if not (
        _LIST.issuperset(map(type, chain(verts, orders)))
        and _INT.issuperset(map(type, chain.from_iterable(chain(verts, orders))))
    ):
        return None
    sorted_orders = list(map(tuple, map(sorted, orders)))
    if len(orders) == len(items) and list(map(tuple, verts)) == sorted_orders:
        faces = witnessed = sorted_orders
        ordered = True
    else:
        faces = list(map(tuple, map(sorted, verts)))
        witnessed = list(compress(faces, has))
        ordered = witnessed == sorted_orders
    orders = list(map(tuple, orders))
    witnesses = dict(zip(witnessed, orders))
    if len(witnesses) != len(orders) and (
        list(map(witnesses.__getitem__, witnessed)) != orders
    ):
        return None
    faces.sort(key=len)
    by_size = {size: dict.fromkeys(level) for size, level in groupby(faces, len)}
    if 0 in by_size:
        return None
    k = SimplicialComplex.from_faces_by_size(by_size, witnesses)
    if any(a == b for a, b in by_size.get(2, ())):
        return None
    _check_truncated(truncated)
    if not ordered:
        for s, w in witnesses.items():
            if tuple(sorted(w)) != s:
                raise InputError(f"witness {w} is not an ordering of {s}")
    k.truncated = truncated
    return k


def _digraph_from_doc(vertices, pairs):
    labels = list(map(str, vertices))
    index = dict(zip(labels, range(len(labels))))
    if len(index) != len(labels):
        raise InputError("vertex labels must be unique")
    try:
        edges = [(index[u], index[v]) for u, v in pairs]
    except KeyError:  # an int or float entry, or an unknown label
        edges = [tuple(_resolve(entry, index) for entry in pair) for pair in pairs]
    return Digraph.from_edge_list(len(labels), edges, labels=labels or None)


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
    return Digraph.from_edge_list(n, edges)


def parse_digraph(source, format="json"):
    """Parse a digraph document ('json') or an edgelist ('edgelist').

    A complex document is refused, as the digraph-only commands refuse it.
    """
    if format == "edgelist":
        return _parse_edgelist(source)
    if format == "json":
        kind, g = _read_document(source)
        if kind == "complex":
            raise InputError("expected a digraph document, got a complex document")
        return g
    raise InputError(f"unknown input format {format!r}")


def _complex_doc(k):
    witness = k.witness
    simplices = _Simplices({"verts": s, "witness": witness[s]} for s in k.simplices())
    simplices.levels, simplices.witness = k.by_dimension, witness
    return {
        "schema": SCHEMA,
        "f_vector": list(f_vector(k)),
        "simplices": simplices,
        "truncated": k.truncated,
    }


def _complex_digest(k):
    """``_digest`` of the f-vector and simplices of ``_complex_doc(k)``,
    hashed one level at a time."""
    h = hashlib.sha256()
    h.update(f'{{"f_vector":{_canonical(list(f_vector(k)))},"simplices":'.encode())
    _write_simplices(k.by_dimension, k.witness, None, lambda text: h.update(text.encode()))
    h.update(b"}")
    return h.hexdigest()


def _digraph_digest(g):
    """``_digest`` of the vertices and edges of ``_digraph_doc(g)``, hashed
    from its compact text joined from the quoted labels."""
    labels, ranked, keys = _ranked_edges(g)
    n = g.n
    quoted = list(map(encode_basestring_ascii, ranked))
    heads = ["[" + q + "," for q in quoted]
    tails = [q + "]" for q in quoted]
    text = ",".join([heads[k // n] + tails[k % n] for k in keys])
    vertices = ",".join(map(encode_basestring_ascii, labels))
    text = '{"edges":[' + text + '],"vertices":[' + vertices + "]}"
    return hashlib.sha256(text.encode()).hexdigest()
