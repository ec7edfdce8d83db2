"""JSON documents: the digraph and complex documents and the reports.

A digraph document has the keys ``vertices`` and ``edges``, a complex
document (the output of ``complex``) the keys ``f_vector``, ``simplices``
and ``truncated``.  ``_read_json`` parses either and checks the shape of
every key the commands read; a complex document is read in one pass over
``simplices`` (``_read_simplices``) that checks each item, sorts its
vertices once and collects its witness.

Every report, error reports included, is written by ``_dumps``: the text
``json.dumps`` gives with sorted keys and a two-space indent, made without
json's pure-Python indenting encoder.  Strings go through the C string
encoder and each list of plain integers through one ``join``, so a complex
document takes under half the time.

An input digest is the sha256 of the compact, key-sorted JSON text of the
canonical reconstruction of the input, so reordered edges or an edgelist
spelling of the same digraph hash identically.  A complex's text is hashed
level by level from a template (``_complex_digest``), without building its
document.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from json.encoder import encode_basestring_ascii

from .complexes import f_vector
from .digraph import Digraph, InputError

SCHEMA = "1"


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj):
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT = frozenset({int})


def _dumps(obj):
    """The text of ``obj`` as ``json.dumps`` writes it with ``sort_keys=True``
    and a two-space indent, plus a newline.

    Dicts, lists and tuples are recognised by exact type, and dict keys
    must be strings.  Floats and other scalars without a table entry go to
    ``json.dumps`` one at a time.
    """
    chunks = []
    _write(obj, "\n", chunks.append, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(x, nl, out, layouts):
    # ``nl`` is the newline and indent of the line x starts on; ``layouts``
    # maps it to the text around and between the items of a container there.
    t = type(x)
    if t is dict or t is list or t is tuple:
        if not x:
            out("{}" if t is dict else "[]")
            return
        layout = layouts.get(nl)
        if layout is None:
            inner = nl + "  "
            layout = layouts[nl] = (
                inner, "," + inner, "{" + inner, nl + "}", "[" + inner, nl + "]"
            )
        if t is dict:
            inner, comma, sep, close, _, _ = layout
            for key in sorted(x):
                out(sep)
                out(encode_basestring_ascii(key))
                out(": ")
                _write(x[key], inner, out, layouts)
                sep = comma
        else:
            inner, comma, _, _, sep, close = layout
            if set(map(type, x)) <= _INT:  # so no bool either
                out(sep)
                out(comma.join(map(int.__repr__, x)))
            else:
                for item in x:
                    out(sep)
                    _write(item, inner, out, layouts)
                    sep = comma
        out(close)
    elif t is str:
        out(encode_basestring_ascii(x))
    elif t is int:
        out(int.__repr__(x))
    elif t is bool or x is None:
        out(_CONSTANTS[x])
    else:
        out(json.dumps(x))


def _digraph_doc(g):
    labels = [g.label_of(v) for v in range(g.n)]
    edges = sorted([labels[u], labels[v]] for u, v in g.edges())
    return {"schema": SCHEMA, "vertices": labels, "edges": edges}


def _list_of(x, ok):
    return type(x) is list and all(map(ok, x))


def _is_label(x):
    return type(x) in (str, int, float)


# Each digraph key the CLI reads, with the test each item of its list passes.
_SHAPES = {
    "vertices": ("vertex labels", _is_label),
    "edges": ("[u, v] label pairs", lambda e: _list_of(e, _is_label) and len(e) == 2),
}

_BAD_SIMPLICES = (
    "'simplices' must be a list of objects with integer lists \"verts\" and"
    ' (optional) "witness"'
)


def _read_json(text):
    """Parse a JSON document and check the shape of every key the CLI reads.

    Returns the document with the faces and witnesses of its ``simplices``
    (see ``_read_simplices``).
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
    for key, (what, ok) in _SHAPES.items():
        if not _list_of(doc.get(key, []), ok):
            raise InputError(f"{key!r} must be a list of {what}")
    faces, witnesses, clash = _read_simplices(doc.get("simplices", []))
    if type(doc.get("truncated", False)) is not bool:
        raise InputError("'truncated' must be true or false")
    if clash is not None:
        raise InputError(f"'simplices' gives two witnesses for {list(clash)}")
    return doc, faces, witnesses


def _read_simplices(items):
    """Check a ``simplices`` list and read it in one pass.

    Returns the sorted ``verts`` tuple of every item, the witness tuple of
    every item that has one (keyed by its sorted ``verts``), and the first
    sorted ``verts`` given two different witnesses, or None.  A shape error
    is raised at once; a witness clash is left to the caller, which reports
    it after the other checks.
    """
    if type(items) is not list:
        raise InputError(_BAD_SIMPLICES)
    faces, witnesses, clash = [], {}, None
    for item in items:
        verts = item.get("verts") if type(item) is dict else None
        if type(verts) is not list or not set(map(type, verts)) <= _INT:
            raise InputError(_BAD_SIMPLICES)
        verts = tuple(sorted(verts))
        faces.append(verts)
        if "witness" in item:
            witness = item["witness"]
            if type(witness) is not list or not set(map(type, witness)) <= _INT:
                raise InputError(_BAD_SIMPLICES)
            witness = tuple(witness)
            if witnesses.setdefault(verts, witness) != witness and clash is None:
                clash = verts
    return faces, witnesses, clash


def _digraph_from_doc(doc):
    labels = [str(x) for x in doc.get("vertices", [])]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InputError("vertex labels must be unique")
    edges = []
    for pair in doc.get("edges", []):
        resolved = []
        for entry in pair:
            if isinstance(entry, str) and entry in index:
                resolved.append(index[entry])
            elif isinstance(entry, int) and 0 <= entry < len(labels):
                resolved.append(entry)
            elif str(entry) in index:
                resolved.append(index[str(entry)])
            else:
                raise InputError(f"unknown vertex label {entry!r}")
        edges.append(tuple(resolved))
    return Digraph.from_edge_list(len(labels), edges, labels=labels or None)


def _parse_edgelist(text):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1 or not fields[0].isdigit():
                raise InputError(f"line {lineno}: expected the vertex count")
            n = int(fields[0])
            continue
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected two integers") from None
        if not (0 <= u < n and 0 <= v < n):
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
        doc = _read_json(source)[0]
        if "simplices" in doc:
            raise InputError("expected a digraph document, got a complex document")
        return _digraph_from_doc(doc)
    raise InputError(f"unknown input format {format!r}")


def _complex_doc(k):
    # The complex's own tuples, written as JSON lists: no list per simplex.
    witness = k.witness
    simplices = [{"verts": s, "witness": witness[s]} for s in k.simplices()]
    return {
        "schema": SCHEMA,
        "f_vector": list(f_vector(k)),
        "simplices": simplices,
        "truncated": k.truncated,
    }


def _complex_digest(k):
    """``_digest`` of the f-vector and simplices of ``_complex_doc(k)``.

    The canonical text is hashed one dimension at a time, each simplex
    formatted from one template instead of a dict.
    """
    h = hashlib.sha256()
    h.update(f'{{"f_vector":{_canonical(list(f_vector(k)))},"simplices":['.encode())
    sep = ""
    for level in k.by_dimension:
        ints = ",".join(["%d"] * len(level[0]))
        item = '{"verts":[' + ints + '],"witness":[' + ints + "]}"
        rows = map(operator.add, level, map(k.witness.__getitem__, level))
        h.update((sep + ",".join(map(item.__mod__, rows))).encode())
        sep = ","
    h.update(b"]}")
    return h.hexdigest()


def _digraph_digest(g):
    doc = _digraph_doc(g)
    return _digest({"vertices": doc["vertices"], "edges": doc["edges"]})
