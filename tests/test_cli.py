import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrhom import (
    Digraph,
    InputError,
    SimplicialComplex,
    build_complex,
    circulant,
    figure_digraph,
    les_exactness_check,
    random_digraph,
    relative_homology,
)
from dvrhom import cli, documents
from dvrhom.cli import main, parse_digraph, run_command
from oracles import (
    cli_parser_oracle,
    complex_document_oracle,
    digraph_document_oracle,
    les_chain_oracle,
    restrict_to,
    witness_dict,
)


def run(argv, stdin_text=""):
    out = io.StringIO()
    report = run_command(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return report, out.getvalue()


def pipe(*commands):
    """Chain commands over their stdout/stdin like a shell pipeline."""
    text = ""
    report = None
    for argv in commands:
        report, text = run(argv, stdin_text=text)
    return report, text


def test_parse_digraph_edgelist():
    g = parse_digraph("3\n0 1\n1 2\n", format="edgelist")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.has_edge(0, 0)


def test_parse_digraph_edgelist_errors_carry_line_numbers():
    from dvrhom import InputError

    with pytest.raises(InputError, match="line 3"):
        parse_digraph("3\n0 1\n5 9\n", format="edgelist")
    with pytest.raises(InputError, match="line 2"):
        parse_digraph("2\n0 1 2\n", format="edgelist")


@pytest.mark.parametrize(
    "text, message",
    [
        # A superscript two passes str.isdigit, but int() refuses it.
        ("\u00b2\n", "line 1: expected the vertex count"),
        ("3\n0 x\n", "line 2: expected two integers"),
        # int() reads both of these, but they are not decimal digits.
        ("2\n0 1_0\n", "line 2: expected two integers"),
        ("2\n+0 -0\n", "line 2: expected two integers"),
        ("# nothing\n\n", "empty edgelist input"),
    ],
)
def test_edgelist_errors_exit_1_with_their_message(capsys, text, message):
    code = _main_with_stdin(["homology", "--format", "edgelist"], text)
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_digraph(text, format="edgelist")


def test_parse_digraph_refuses_an_unknown_format():
    with pytest.raises(InputError, match="^unknown input format 'xml'$"):
        parse_digraph("3\n", format="xml")


def test_duplicate_vertex_labels_exit_1(capsys):
    # Labels are read as strings, so 1 and "1" are one label.
    code = _main_with_stdin(["homology"], '{"vertices": ["a", 1, "1"], "edges": []}')
    assert code == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message == "vertex labels must be unique"


def test_parse_digraph_edgelist_comments():
    g = parse_digraph("# fixture\n2\n0 1  # forward\n", format="edgelist")
    assert sorted(g.edges()) == [(0, 1)]


def test_parse_digraph_json_labels():
    doc = {
        "vertices": ["A", "B", "C", "D"],
        "edges": [["A", "B"], ["A", "C"], ["A", "D"], ["B", "D"], ["C", "D"]],
    }
    g = parse_digraph(json.dumps(doc), format="json")
    assert g == figure_digraph("left")
    assert g.labels == ("A", "B", "C", "D")


def test_parse_digraph_json_unknown_label():
    from dvrhom import InputError

    doc = {"vertices": ["A"], "edges": [["A", "Z"]]}
    with pytest.raises(InputError, match="Z"):
        parse_digraph(json.dumps(doc), format="json")


def test_integer_edge_entry_naming_two_vertices_exits_1(capsys):
    # 0 is the index of the vertex labelled 5 and the label of the one at
    # index 1; read as an index it would make the edge a loop on 5.
    text = json.dumps({"vertices": [5, 0], "edges": [[0, 5]]})
    with pytest.raises(InputError, match="edge entry 0 names two vertices"):
        parse_digraph(text)
    assert _main_with_stdin(["complex"], text) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "edge entry 0" in doc["error"]["message"]
    # An entry whose index and label agree, or that is only one of them, is
    # read as before.
    g = parse_digraph(json.dumps({"vertices": [0, 5], "edges": [[0, 5], [1, 0]]}))
    assert sorted(g.edges()) == [(0, 1), (1, 0)]


def test_parse_digraph_refuses_a_complex_document():
    for text in (
        '{"simplices": [{"verts": [0, 1]}]}',
        '{"simplices": []}',
        pipe(["gen", "circulant", "--n", "4", "--m", "1"], ["complex"])[1],
    ):
        with pytest.raises(InputError, match="got a complex document"):
            parse_digraph(text)


def test_gen_circulant_homology_pipeline():
    report, _ = pipe(
        ["gen", "circulant", "--n", "6", "--m", "2"],
        ["homology", "--coeff", "z"],
    )
    assert [g["betti"] for g in report["groups"]] == [1, 0, 1]
    assert all(g["torsion"] == [] for g in report["groups"])
    assert report["schema"] == "1"


def test_gen_figure_pi1_pipeline():
    report, _ = pipe(
        ["gen", "figure", "--which", "right"],
        ["pi1", "--basepoint", "0"],
    )
    assert len(report["generators"]) == 1
    assert report["relators"] == []
    assert report["abelianization"] == {"betti": 1, "torsion": []}


def test_gen_random_les_pipeline():
    report, _ = pipe(
        ["gen", "random", "--n", "6", "--p", "0.4", "--seed", "42"],
        ["les-check", "--subset", "0,1,2", "--coeff", "q"],
    )
    assert report["exact"] is True
    assert all(node["exact"] for node in report["nodes"])


def test_les_nodes_are_the_node_reports_as_dicts():
    _, gen_text = run(["gen", "random", "--n", "7", "--p", ".5", "--seed", "4"])
    report, _ = run(["les-check", "--subset", "0,2,5"], stdin_text=gen_text)
    k = build_complex(parse_digraph(gen_text))
    nodes = les_exactness_check(k, restrict_to(k, (0, 2, 5)), "q").nodes
    assert len(nodes) > 1
    assert report["nodes"] == [node._asdict() for node in nodes]


# A = {} for three digraphs, over Q, Z_2 and Z_1000003: the sha256 of each
# whole les-check report, pinned byte for byte.
_EMPTY_SUBSET_PINS = [
    (gen, coeff, digest)
    for gen, digests in [
        (
            ["gen", "random", "--n", "9", "--p", ".5", "--seed", "3"],
            [
                "74739d6172d53e708a8fcce7c8ca4bf6004d3435997339c250fbcf6d55211a09",
                "8b82ba10a86ccab360a1b5b501cb4dbbb0d8cdd62aeea4ca7ea6f17e59fb712a",
                "f5e6e70a328438416888f52498a6c0c81dbae7c02ffe617c0055863848cd4d9a",
            ],
        ),
        (
            ["gen", "circulant", "--n", "8", "--m", "3"],
            [
                "96732f45f82129eb5898059c597dd5f5702ad69268c4ce8fe58424bf93e3db16",
                "921412df1442f6f1abc710f4b5e81f6d5f3ba1758ea7fed56fd115f06c3882c6",
                "493a8a99f386be31b88212614d80b8724674b9649c761bc06bf480fd0cfcc02b",
            ],
        ),
        (
            ["gen", "figure", "--which", "right"],
            [
                "be4dd8b379f67ed44b3cb9b72a4de11141d4b0e7b41ab70dda77c9738742799c",
                "4aecd75be61337ea4e1edf57b18369f3c7f9ab2da49e21fa33528d80df26a855",
                "a001eeb853bc2aa2b7afbab6dcf8ab41c9c9eaa76fc431dbbb5dbdd1762ab634",
            ],
        ),
    ]
    for coeff, digest in zip(("q", "zp:2", "zp:1000003"), digests)
]


@pytest.mark.parametrize("gen, coeff, digest", _EMPTY_SUBSET_PINS)
def test_les_check_with_an_empty_subset_matches_the_chain_oracle(gen, coeff, digest):
    _, gen_text = run(gen)
    argv = ["les-check", "--subset", "", "--coeff", coeff]
    report, text = run(argv, stdin_text=gen_text)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    k = build_complex(parse_digraph(gen_text))
    p = {"q": None, "zp:2": 2, "zp:1000003": 1000003}[coeff]
    nodes = les_chain_oracle(k.by_dimension, (), p)
    assert report["nodes"] == [node._asdict() for node in nodes]


_SHELL_3 = ";".join(
    f"{x},{y},{z}"
    for x in range(3)
    for y in range(3)
    for z in range(3)
    if (x, y, z) != (1, 1, 1)
)


@pytest.mark.parametrize(
    "gen",
    [
        ["gen", "random", "--n", "13", "--p", ".5", "--seed", "1"],
        ["gen", "random", "--n", "14", "--p", ".5", "--seed", "2"],
        ["gen", "circulant", "--n", "20", "--m", "4"],
        ["gen", "digital", "--points", _SHELL_3],
    ],
)
def test_pi1_of_a_digraph_reads_its_2_skeleton_alone(gen):
    # The digraph's complex capped at dimension 2 is truncated, and its pi1
    # report is the one of the whole complex, with no "truncated" key.
    _, gen_text = run(gen)
    assert build_complex(parse_digraph(gen_text), 2).truncated
    report, _ = run(["pi1"], stdin_text=gen_text)
    whole, _ = pipe(gen, ["complex"], ["pi1"])
    assert "truncated" not in report
    del report["input_digest"], whole["input_digest"]
    assert report == whole


def test_complex_roundtrip_preserves_homology():
    gen_report, gen_text = run(["gen", "figure", "--which", "left"])
    direct, _ = run(["homology"], stdin_text=gen_text)
    _, complex_text = run(["complex"], stdin_text=gen_text)
    roundtrip, _ = run(["homology"], stdin_text=complex_text)
    assert direct["groups"] == roundtrip["groups"]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.sampled_from(("0.3", "0.6", "0.9")), st.integers(0, 10**6))
def test_complex_document_keeps_groups_and_presentation(n, p, seed):
    _, gen_text = run(["gen", "random", "--n", str(n), "--p", p, "--seed", str(seed)])
    _, complex_text = run(["complex"], stdin_text=gen_text)
    for argv, keys in (
        (["homology", "--coeff", "z"], ("groups",)),
        (["pi1"], ("generators", "relators", "abelianization")),
    ):
        answers = []
        for text in (gen_text, complex_text):
            try:
                report, _ = run(argv, stdin_text=text)
                answers.append({key: report[key] for key in keys})
            except InputError as e:  # pi1 of a disconnected digraph
                answers.append(str(e))
        assert answers[0] == answers[1]


def test_pair_command():
    _, gen_text = run(["gen", "figure", "--which", "left"])
    report, _ = run(["pair", "--subset", "1,2,3"], stdin_text=gen_text)
    assert all(g["betti"] == 0 and g["torsion"] == [] for g in report["groups"])


# A complex document whose vertex ids skip numbers: vertices 5 and 7.
_SKIPPING_IDS = json.dumps({"simplices": [{"verts": [5, 7]}]})
_RANDOM_DOCUMENTS = st.builds(
    lambda n, p, seed: json.dumps(documents._digraph_doc(random_digraph(n, p, seed))),
    st.integers(0, 8),
    st.sampled_from((0.3, 0.5, 0.8)),
    st.integers(0, 10**6),
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(_SKIPPING_IDS), _RANDOM_DOCUMENTS), st.data())
def test_vertex_subsets_split_as_their_full_subcomplexes(text, data):
    # pair and les-check pass their parsed subset to the library, which
    # splits each level by it; the empty subset, one vertex, all vertices
    # and a drawn subset give what the full subcomplex on them gives, over
    # Z (pair) and Q, Z_2 and Z_3 (les-check).  The library takes any
    # iterable of vertices, an iterator too.
    kind, obj, _ = documents._read_document(text)
    k = cli._complex_of(kind, obj)
    vertices = [s[0] for s in k.by_dimension[0]] if k.by_dimension else []
    drawn = data.draw(st.lists(st.sampled_from(vertices), unique=True)) if vertices else []
    for subset in {(), tuple(vertices[:1]), tuple(vertices), tuple(sorted(drawn))}:
        arg = ",".join(map(str, subset))
        sub = restrict_to(k, subset)
        expected = relative_homology(k, sub)
        assert relative_homology(k, subset) == expected
        assert relative_homology(k, iter(subset)) == expected
        report, _ = run(["pair", "--subset", arg], stdin_text=text)
        assert report["subset"] == list(subset)
        assert report["groups"] == cli._groups_json(expected)
        for coeff, field in (("q", "q"), ("zp:2", 2), ("zp:3", 3)):
            expected = les_exactness_check(k, sub, field)
            assert les_exactness_check(k, subset, field) == expected
            assert les_exactness_check(k, (v for v in subset), field) == expected
            report, _ = run(["les-check", "--subset", arg, "--coeff", coeff], text)
            assert report["nodes"] == [node._asdict() for node in expected.nodes]
            assert report["exact"] is expected.exact


def test_capped_complexes_are_flagged_by_pair_and_les_check():
    # Capped at dimension 1, this complex loses its triangles and H1 reads
    # Z^10; uncapped reports carry no flag and stay as they were.
    _, gen_text = run(["gen", "random", "--n", "6", "--p", ".9", "--seed", "1"])
    _, capped = run(["complex", "--max-dim", "1"], stdin_text=gen_text)
    for argv in (["pair", "--subset", "0,1"], ["les-check", "--subset", "0,1"]):
        report, _ = run(argv, stdin_text=capped)
        assert report["truncated"] is True
        report, _ = run(argv, stdin_text=gen_text)
        assert "truncated" not in report
    report, _ = run(["pair", "--subset", "0,1"], stdin_text=capped)
    assert report["groups"][1]["betti"] == 10


def test_pi1_of_a_complex_capped_below_dimension_2_exits_1(capsys):
    _, gen_text = run(["gen", "random", "--n", "6", "--p", ".9", "--seed", "1"])
    for cap in ("0", "1"):
        _, capped = run(["complex", "--max-dim", cap], stdin_text=gen_text)
        assert _main_with_stdin(["pi1"], capped) == 1
        doc = json.loads(capsys.readouterr().out)
        assert "2-skeleton" in doc["error"]["message"]
    # A cap of 2 keeps every relator: the group is trivial, as uncapped.
    _, capped = run(["complex", "--max-dim", "2"], stdin_text=gen_text)
    for text in (capped, gen_text):
        report, _ = run(["pi1"], stdin_text=text)
        assert report["generators"] == [] and report["relators"] == []


def test_fx_certify_command():
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    report, _ = run(["fx-certify"], stdin_text=gen_text)
    assert report["passed"] is True
    assert report["counterexample"] is None


def test_fx_sample_command_records_seed():
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    report, _ = run(
        ["fx-sample", "--samples", "200", "--delta", "1/100", "--seed", "7"],
        stdin_text=gen_text,
    )
    assert report["seed"] == 7
    assert report["failure_count"] == 0
    assert report["delta"] == "1/100"


def test_reports_are_byte_identical():
    _, text1 = run(["gen", "digital", "--points", "1,0;0,1;-1,0;0,-1"])
    _, text2 = run(["gen", "digital", "--points", "1,0;0,1;-1,0;0,-1"])
    assert text1 == text2
    _, hom1 = run(["homology", "--coeff", "zp:2"], stdin_text=text1)
    _, hom2 = run(["homology", "--coeff", "zp:2"], stdin_text=text2)
    assert hom1 == hom2


def test_digest_tracks_content_not_flags():
    _, gen_text = run(["gen", "figure", "--which", "middle"])
    rep_a, _ = run(["homology", "--coeff", "z"], stdin_text=gen_text)
    rep_b, _ = run(["homology", "--coeff", "q"], stdin_text=gen_text)
    assert rep_a["input_digest"] == rep_b["input_digest"]
    assert rep_a["command"] != rep_b["command"]


def test_digest_is_canonical_across_input_spellings():
    doc = {"vertices": ["0", "1", "2"], "edges": [["1", "2"], ["0", "1"]]}
    rep_json, _ = run(["homology"], stdin_text=json.dumps(doc))
    rep_list, _ = run(
        ["homology", "--format", "edgelist"], stdin_text="3\n0 1\n1 2\n"
    )
    doc_ints = {"vertices": ["0", "1", "2"], "edges": [[0, 1], [1, 2]]}
    rep_ints, _ = run(["homology"], stdin_text=json.dumps(doc_ints))
    assert rep_json["input_digest"] == rep_list["input_digest"]
    assert rep_json["input_digest"] == rep_ints["input_digest"]


def test_edgelist_input_format_flag():
    report, _ = run(
        ["homology", "--format", "edgelist", "--coeff", "z"],
        stdin_text="3\n0 1\n1 2\n",
    )
    assert [g["betti"] for g in report["groups"]] == [1, 0]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--badflag"])
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys):
    code = _main_with_stdin(["pi1"], '{"vertices": ["a", "b"], "edges": []}')
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert "disconnected" in doc["error"]["message"]


def test_negative_random_vertex_count_exits_1(capsys):
    code = main(["gen", "random", "--n", "-2", "--p", ".5"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert "n >= 0" in doc["error"]["message"]
    assert "vertices" not in doc


def test_huge_edgelist_vertex_count_exits_1(capsys):
    # Twelve bytes that name 99,999,999,999 vertices are refused, not built.
    code = _main_with_stdin(["homology", "--format", "edgelist"], "99999999999\n")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["message"] == (
        "99999999999 vertices exceed the limit of 65536"
    )


def test_digraph_document_errors_at_the_vertex_bound_come_in_order():
    # Repeated labels, then the first edge entry that names no vertex, then
    # the vertex count: all found before any mask is allocated.
    labels = list(map(str, range(65537)))
    cases = [
        (labels, [["0", "1"], ["0", "zz"]], "unknown vertex label 'zz'"),
        (labels, [["0", "1"], [0, 70000]], "unknown vertex label 70000"),
        (labels, [["0", "65536"], [65536, 0]], "65537 vertices exceed the limit of 65536"),
        (labels[:-1] + ["0"], [["0", "zz"]], "vertex labels must be unique"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(InputError) as exc:
            parse_digraph(json.dumps({"vertices": vertices, "edges": edges}))
        assert str(exc.value) == message


def test_edgelist_vertex_count_past_the_int_digit_limit_exits_1(capsys):
    # int() refuses more than 4,300 digits, so the count is refused by its
    # length first, as any other count above the bound; leading zeros do
    # not count.
    count = "9" * 5000
    code = _main_with_stdin(["homology", "--format", "edgelist"], count + "\n")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["message"] == f"{count} vertices exceed the limit of 65536"
    for text in ("1" + "0" * 5, "0" * 5000 + "65537"):
        with pytest.raises(InputError, match=f"^{text.lstrip('0')} vertices exceed"):
            parse_digraph(text + "\n", format="edgelist")
    assert parse_digraph("0" * 5000 + "3\n0 1\n", format="edgelist").n == 3


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args, kind, obj):
        raise RuntimeError("boom")

    text, _, options = cli._COMMANDS["pi1"]
    monkeypatch.setitem(cli._COMMANDS, "pi1", (text, broken, options))
    code = _main_with_stdin(["pi1"], '{"vertices": ["a"], "edges": []}')
    assert code == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["command"] == "pi1"
    assert doc["error"]["message"] == "internal error: RuntimeError: boom"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["les-check", "--subset", "0", "--coeff", "z"],
            "this command needs field coefficients (q or zp:<p>)",
        ),
        (["homology", "--max-dim", "-1"], "dimension cap must be >= 0"),
    ],
)
def test_option_values_a_command_refuses_exit_1(capsys, argv, message):
    _, gen_text = run(["gen", "circulant", "--n", "4", "--m", "1"])
    code = _main_with_stdin(argv, gen_text)
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message


_BIG_DIGRAPH = run(["gen", "random", "--n", "9", "--p", ".7", "--seed", "1"])[1]
_SMALL_DIGRAPH = run(["gen", "circulant", "--n", "4", "--m", "1"])[1]


@pytest.mark.parametrize(
    "argv, text",
    [
        # A report longer than stdout's buffer fails as it is written, a
        # short one or an error report when it is flushed.
        (["complex"], _BIG_DIGRAPH),
        (["homology"], _SMALL_DIGRAPH),
        (["homology"], "not json at all"),
    ],
    ids=["long-report", "short-report", "error-report"],
)
def test_stdout_closed_by_its_reader_exits_1_without_a_traceback(argv, text):
    assert len(run(["complex"], _BIG_DIGRAPH)[1]) > io.DEFAULT_BUFFER_SIZE
    src = str(pathlib.Path(cli.__file__).parents[1])
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dvrhom.cli", *argv],
            input=text.encode(),
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            check=False,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def _main_with_stdin(argv, text):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return main(argv)
    finally:
        sys.stdin = old


@pytest.mark.parametrize(
    "spec",
    ["zp:1" + "0" * 400, "zp:3317044064679887385961981", "zp:2.5", "zp:4", "zp:1"],
)
def test_bad_prime_fields_exit_1(capsys, spec):
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    for argv in (
        ["homology", "--coeff", spec],
        ["les-check", "--subset", "0,1", "--coeff", spec],
    ):
        assert _main_with_stdin(argv, gen_text) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["message"]
        assert "internal error" not in doc["error"]["message"]


def test_a_subset_vertex_outside_the_complex_is_named_before_the_field(capsys):
    # zp:4 names no field, but the subset is checked first.
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    for argv, text, vertex in (
        (["les-check", "--subset", "99", "--coeff", "zp:4"], gen_text, 99),
        (["les-check", "--subset", "99,5,6", "--coeff", "zp:4"], _SKIPPING_IDS, 6),
        (["pair", "--subset", "7,6"], _SKIPPING_IDS, 6),
    ):
        assert _main_with_stdin(argv, text) == 1
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == f"subset vertex {vertex} is not a vertex of the complex"


@pytest.mark.parametrize(
    "spelling, canonical",
    [
        ("zp:03", "zp:3"),
        ("zp:+3", "zp:3"),
        ("ZP: 3 ", "zp:3"),
        ("zp:\u0663", "zp:3"),  # ARABIC-INDIC DIGIT THREE
        ("zp:1_009", "zp:1009"),
        ("Q", "q"),
    ],
)
def test_coefficient_spellings_report_the_canonical_label(spelling, canonical):
    _, gen_text = run(["gen", "random", "--n", "6", "--p", ".5", "--seed", "3"])
    for argv in (["homology"], ["les-check", "--subset", "0,1,2"]):
        report, _ = run(argv + ["--coeff", spelling], stdin_text=gen_text)
        expect, _ = run(argv + ["--coeff", canonical], stdin_text=gen_text)
        assert report.pop("command") != expect.pop("command")
        assert report == expect
        assert report["coefficients"] == canonical


def test_large_prime_field_below_the_limit():
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    argv = ["homology", "--coeff", "zp:1000000000000000003"]
    report, _ = run(argv, stdin_text=gen_text)
    assert [g["betti"] for g in report["groups"]] == [1, 0, 1]


def test_fx_sample_rejects_negative_sample_count(capsys):
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    code = _main_with_stdin(["fx-sample", "--samples", "-5"], gen_text)
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert "sample count" in doc["error"]["message"]
    assert "checked" not in doc


@pytest.mark.parametrize("delta", ["1e-999999999", "1e-4300", "1/" + "9" * 1300])
def test_fx_sample_refuses_radii_too_long_to_report(capsys, delta):
    # Fraction("1e-999999999") alone would build a billion-digit power of ten,
    # and str() refuses the 4301-digit denominator of 1e-4300.
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    assert _main_with_stdin(["fx-sample", "--delta", delta], gen_text) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "bad rational number" in doc["error"]["message"]


def test_fx_sample_reports_a_radius_of_4096_bits_and_its_halvings():
    _, gen_text = run(["gen", "figure", "--which", "left"])
    delta = f"{2**4095}/{2**4096 - 1}"
    argv = ["fx-sample", "--samples", "200", "--seed", "3", "--delta", delta]
    report, _ = run(argv, stdin_text=gen_text)
    assert report["delta"] == delta
    assert report["failures"] and all(f["pass_delta"] for f in report["failures"])


def test_error_report_is_structured(capsys):
    code = _main_with_stdin(["homology"], "not json at all")
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["schema"] == "1"
    assert "message" in doc["error"]


_BAD_SIMPLICES = (
    "'simplices' must be a list of objects with integer lists \"verts\" and"
    ' (optional) "witness"'
)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"simplices": [{}]}', "'simplices'"),
        ('{"vertices": ["a", "b"], "edges": null}', "'edges'"),
        ('{"vertices": "abc"}', "'vertices'"),
        ('{"vertices": ["a", "b"], "edges": [["a"]]}', "'edges'"),
        ('{"simplices": [{"verts": [0, true]}]}', "'simplices'"),
        ("[1, 2]", "object"),
        ('{"simplices": [{"verts": [0]}], "truncated": "false"}', "'truncated'"),
        (
            '{"simplices": [{"verts": [0, 1], "witness": [0, 1]},'
            ' {"verts": [1, 0], "witness": [1, 0]}]}',
            "'simplices'",
        ),
        (
            '{"vertices": ["a", "b"], "edges": [["a", "b"]], "simplices": []}',
            "digraph keys: 'simplices', 'vertices', 'edges'",
        ),
        ('{"edges": [], "simplices": [{"verts": [0]}]}', "keys: 'simplices', 'edges'"),
        ('{"simplices": {"verts": [0]}}', _BAD_SIMPLICES),
        ('{"simplices": [[0, 1]]}', _BAD_SIMPLICES),
        ('{"simplices": [{"witness": [0]}]}', _BAD_SIMPLICES),
        ('{"simplices": [{"verts": [0, 1.0]}]}', _BAD_SIMPLICES),
        ('{"simplices": [{"verts": ["0"]}]}', _BAD_SIMPLICES),
        ('{"simplices": [{"verts": [0], "witness": 0}]}', _BAD_SIMPLICES),
        # A repeated vertex, with or without a witness, names its item.
        ('{"simplices": [{"verts": [1, 1]}]}', "'simplices' item 0 repeats a vertex: [1, 1]"),
        (
            '{"simplices": [{"verts": [1, 1], "witness": [1, 1]}]}',
            "'simplices' item 0 repeats a vertex: [1, 1]",
        ),
        (
            '{"simplices": [{"verts": [0, 1]}, {"verts": [2, 0, 2], "witness": [0, 2]}]}',
            "'simplices' item 1 repeats a vertex: [2, 0, 2]",
        ),
        # A vertex repeated only in a facet, (3, 3) of [1, 3, 3], names its
        # item before a later error of any kind.
        (
            '{"simplices": [{"verts": [0, 1]}, {"verts": [1, 3, 3]}]}',
            "'simplices' item 1 repeats a vertex: [1, 3, 3]",
        ),
        (
            '{"simplices": [{"verts": []}, {"verts": [3, 1, 3], "witness": [1, 3, 3]},'
            ' {"verts": [0, 1], "witness": [0, 0]}], "truncated": 1}',
            "'simplices' item 1 repeats a vertex: [3, 1, 3]",
        ),
        (
            '{"simplices": [{"verts": [2, 0, 1], "witness": [2, 0, 1]},'
            ' {"verts": [1, 2, 0], "witness": [0, 1, 2]}]}',
            "'simplices' gives two witnesses for [0, 1, 2]",
        ),
        # An empty verts comes before a witness that is not an ordering, and
        # of those the first is named.
        (
            '{"simplices": [{"verts": [0, 1], "witness": [0, 0]}, {"verts": []}]}',
            "simplices must be nonempty",
        ),
        (
            '{"simplices": [{"verts": [0, 1], "witness": [1, 0]},'
            ' {"verts": [0, 2], "witness": [0, 0]}, {"verts": [1, 2], "witness": [1, 1]}]}',
            "witness (0, 0) is not an ordering of (0, 2)",
        ),
        # A witness clash is reported after every shape check, as one pass
        # over the items finds it before the shape error of a later item.
        (
            '{"simplices": [{"verts": [0, 1], "witness": [0, 1]},'
            ' {"verts": [1, 0], "witness": [1, 0]}, {"verts": [true]}]}',
            _BAD_SIMPLICES,
        ),
        (
            '{"simplices": [{"verts": [0, 1], "witness": [0, 1]},'
            ' {"verts": [1, 0], "witness": [1, 0]}], "truncated": 1}',
            "'truncated' must be true or false",
        ),
        # Neither a digraph nor a complex document, for the CLI and
        # parse_digraph alike.
        ("{}", "neither a digraph nor a complex document"),
        ('{"schema": "1"}', "neither a digraph nor a complex document"),
        ('{"f_vector": [1]}', "neither a digraph nor a complex document"),
        pytest.param("[" * 100_000, "nested too deeply", id="deep-document"),
        pytest.param(
            '{"vertices": ["a"], "edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "nested too deeply",
            id="deep-edges",
        ),
        pytest.param(
            '{"vertices": [' + "7" * 5000 + "]}",
            "json input has an integer longer than 4300 digits",
            id="long-integer",
        ),
    ],
)
def test_malformed_documents_are_input_errors(capsys, text, key):
    code = _main_with_stdin(["homology"], text)
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert key in doc["error"]["message"]
    with pytest.raises(InputError, match=re.escape(key)):
        parse_digraph(text)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = io.StringIO()
    run_command(
        ["gen", "circulant", "--n", "4", "--m", "1", "--out", str(target)],
        stdin=io.StringIO(""),
        stdout=out,
    )
    assert out.getvalue() == ""
    doc = json.loads(target.read_text())
    assert doc["vertices"] == ["0", "1", "2", "3"]


@pytest.mark.parametrize("target", ["nonexistent/x.json", "."])
def test_unwritable_out_path_exits_1(capsys, tmp_path, target):
    # A path in a missing directory, and a directory.
    target = tmp_path / target
    code = main(["gen", "circulant", "--n", "4", "--m", "1", "--out", str(target)])
    assert code == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message.startswith(f"cannot write --out {str(target)!r}: ")
    assert "internal error" not in message


_STRINGS = st.text(st.characters(codec=None, exclude_categories=()), max_size=6)
_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
    _STRINGS,
)
_NODES = st.lists(
    st.fixed_dictionaries(
        {
            "name": _STRINGS,
            "dim": st.integers(),
            "rank_in": st.integers(),
            "rank_out": st.integers(),
            "exact": st.booleans(),
        }
    ),
    max_size=4,
).map(documents._Nodes)
# Report-shaped values: nested dicts, lists and tuples, empty ones among
# them, integer lists that may hide a bool, and les-check node lists.
_REPORT_VALUES = st.recursive(
    st.one_of(
        _REPORT_SCALARS,
        st.lists(st.integers(), max_size=5),
        st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=5),
        _NODES,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_REPORT_VALUES)
def test_emitter_writes_the_text_of_json_dumps(value):
    assert documents._dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@st.composite
def _complexes(draw):
    """Built complexes, capped ones among them, and abstract complexes with
    witnesses that permute their simplices."""
    if draw(st.booleans()):
        g = random_digraph(
            draw(st.integers(0, 8)),
            draw(st.sampled_from((0.3, 0.6, 0.9))),
            draw(st.integers(0, 10**6)),
        )
        return build_complex(g, draw(st.one_of(st.none(), st.integers(0, 3))))
    faces = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), max_size=6))
    simplices = list(SimplicialComplex.from_simplices(faces).simplices())
    chosen = draw(st.sets(st.sampled_from(simplices))) if simplices else ()
    witnesses = {s: tuple(draw(st.permutations(s))) for s in chosen}
    return SimplicialComplex.from_simplices(faces, witnesses=witnesses)


@settings(max_examples=200, deadline=None)
@given(_complexes())
@example(build_complex(Digraph.from_edge_list(0, [])))
@example(build_complex(Digraph.from_edge_list(1, [])))
@example(build_complex(circulant(6, 2), 1))
def test_complex_documents_are_written_and_hashed_level_by_level(k):
    doc = documents._complex_doc(k)
    witness = witness_dict(k)
    plain = {
        "schema": "1",
        "f_vector": [len(level) for level in k.by_dimension],
        "simplices": [{"verts": s, "witness": witness[s]} for s in k.simplices()],
        "truncated": k.truncated,
    }
    assert doc == plain
    for value, expected in ((doc, plain), ([1, {"x": doc}], [1, {"x": plain}])):
        text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert documents._dumps(value) == text
    assert documents._complex_digest(k) == documents._digest(
        {"f_vector": plain["f_vector"], "simplices": plain["simplices"]}
    )


# A transitive tournament on three vertices, against the vertex order: one
# triangle, witness [2, 1, 0].
_TRIANGLE = '{"vertices": ["0", "1", "2"], "edges": [["2", "1"], ["2", "0"], ["1", "0"]]}'


def test_reports_and_error_reports_are_json_dumps_text(capsys):
    _, gen_text = run(["gen", "random", "--n", "7", "--p", ".6", "--seed", "2"])
    _, complex_text = run(["complex"], stdin_text=gen_text)
    _, capped = run(["complex", "--max-dim", "1"], stdin_text=gen_text)
    calls = [
        (["complex"], gen_text),
        # Levels of one simplex each, and a top level of one simplex.
        (["complex"], '{"vertices": ["a"], "edges": []}'),
        (["complex"], _TRIANGLE),
        (["homology", "--coeff", "zp:3"], complex_text),
        (["les-check", "--subset", "0,2,5"], gen_text),
        # les-check's nodes, written from their template: A = {}, A = X,
        # the empty complex, whose nodes are [], a capped complex and a
        # large prime.
        (["les-check", "--subset", ""], gen_text),
        (["les-check", "--subset", "0,1,2,3,4,5,6"], gen_text),
        (["les-check", "--subset", ""], '{"vertices": [], "edges": []}'),
        (["les-check", "--subset", "0,1"], capped),
        (["les-check", "--subset", "0,2,5", "--coeff", "zp:1000003"], gen_text),
        (["pi1"], complex_text),
        (["fx-certify"], gen_text),
        (["fx-sample", "--samples", "30", "--seed", "1"], gen_text),
    ]
    shapes = []
    for argv, text in calls:
        report, written = run(argv, stdin_text=text)
        assert written == json.dumps(report, sort_keys=True, indent=2) + "\n"
        if argv[0] == "les-check":
            assert type(report["nodes"]) is documents._Nodes
            shapes.append((len(report["nodes"]), "truncated" in report))
    assert shapes[3:5] == [(0, False), (6, True)]
    bad_label = '{"vertices": ["a"], "edges": [["a", "\u00e9\\n"]]}'
    assert _main_with_stdin(["homology"], bad_label) == 1
    written = capsys.readouterr().out
    assert written == json.dumps(json.loads(written), sort_keys=True, indent=2) + "\n"


def test_homology_accepts_abstract_complex_documents():
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    doc = {"schema": "1", "simplices": [{"verts": list(f)} for f in faces]}
    integer, _ = run(["homology", "--coeff", "z"], stdin_text=json.dumps(doc))
    assert integer["groups"] == [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": [2]},
        {"dim": 2, "betti": 0, "torsion": []},
    ]
    mod2, _ = run(["homology", "--coeff", "zp:2"], stdin_text=json.dumps(doc))
    assert [g["betti"] for g in mod2["groups"]] == [1, 1, 1]


def test_max_dim_flag_marks_truncation():
    _, gen_text = run(["gen", "circulant", "--n", "6", "--m", "2"])
    report, _ = run(["homology", "--max-dim", "1"], stdin_text=gen_text)
    assert report["truncated"] is True


def test_repeated_calls_share_one_parser_and_stay_byte_identical(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    _, gen_text = run(["gen", "random", "--n", "7", "--p", ".5", "--seed", "4"])
    commands = [
        ["homology", "--coeff", "zp:3", "--reduced"],
        ["homology"],
        ["les-check", "--subset", "0,2,5"],
        ["fx-sample", "--samples", "40", "--seed", "2"],
    ]
    first = [run(argv, stdin_text=gen_text)[1] for argv in commands]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["homology", "--badflag"], stdin_text=gen_text)
        assert exc.value.code == 2
        again = [run(argv, stdin_text=gen_text)[1] for argv in commands]
        assert again == first
    target = tmp_path / "report.json"
    _, text = run(["homology", "--out", str(target)], stdin_text=gen_text)
    assert text == ""
    written = json.loads(target.read_text())
    assert written.pop("command").startswith("homology --out")
    expected = json.loads(first[1])
    del expected["command"]
    assert written == expected
    assert run(["homology"], stdin_text=gen_text)[1] == first[1]


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 8), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 8), max_size=2),
)
_LABELS = st.sampled_from(["a", "b", "c", "d", 0, 1, 2, 5, -1, 1.5])
_VERTS = st.lists(st.integers(-1, 5), max_size=4)
_SIMPLEX_ITEMS = st.lists(st.integers(-1, 5), min_size=1, max_size=4, unique=True).flatmap(
    lambda v: st.fixed_dictionaries(
        {"verts": st.just(v)}, optional={"witness": st.one_of(st.permutations(v), _VERTS)}
    )
)
_DIGRAPH_KEYS = {
    "vertices": st.lists(_LABELS, max_size=6, unique_by=str),
    "edges": st.lists(st.lists(_LABELS, min_size=2, max_size=2), max_size=12),
}
# Well-formed digraph and complex documents with out-of-range values, and
# documents whose every key may be ill-typed or mixed with the others.
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(_DIGRAPH_KEYS),
    st.fixed_dictionaries(
        {"simplices": st.lists(_SIMPLEX_ITEMS, max_size=6)},
        optional={"truncated": st.booleans()},
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "vertices": st.one_of(_DIGRAPH_KEYS["vertices"], _JUNK),
            "edges": st.one_of(
                st.lists(st.lists(_LABELS, max_size=3), max_size=10), _JUNK
            ),
            "simplices": st.one_of(
                st.lists(
                    st.one_of(
                        st.fixed_dictionaries(
                            {},
                            optional={
                                "verts": st.one_of(_VERTS, _JUNK),
                                "witness": st.one_of(_VERTS, _JUNK),
                            },
                        ),
                        _JUNK,
                    ),
                    max_size=5,
                ),
                _JUNK,
            ),
            "truncated": st.one_of(st.booleans(), _JUNK),
        },
    ),
    _JUNK,
)
_DOCUMENT_COMMANDS = [
    ["complex"],
    ["complex", "--max-dim", "1"],
    ["homology"],
    ["homology", "--coeff", "zp:2", "--reduced"],
    ["homology", "--coeff", "q", "--max-dim", "1"],
    ["pair", "--subset", "0,1"],
    ["les-check", "--subset", "0,1"],
    ["les-check", "--subset", "1", "--coeff", "zp:3"],
    ["pi1"],
    ["pi1", "--basepoint", "2"],
    ["fx-certify"],
    ["fx-sample", "--samples", "20"],
]


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_fuzzed_documents_end_in_a_report_or_an_input_error(doc):
    text = json.dumps(doc)
    for argv in _DOCUMENT_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _main_with_stdin(argv, text)
        assert code in (0, 1), (argv, text, out.getvalue())
        report, end = json.JSONDecoder().raw_decode(out.getvalue())
        assert type(report) is dict and not out.getvalue()[end:].strip()
        if code == 1:
            assert report["error"]["message"]


def _read_or_message(read, doc):
    try:
        return read(doc)
    except InputError as exc:
        return str(exc)


def _read_complex(doc):
    kind, k, digest = documents._read_document(json.dumps(doc))
    assert kind == "complex"
    return k.by_dimension, witness_dict(k), k.truncated, digest


def _complex_document_and_digest_oracle(doc):
    """``complex_document_oracle`` and the input digest of what it read,
    hashed from the plain document."""
    levels, witness, truncated = complex_document_oracle(doc)
    digest = documents._digest(
        {
            "f_vector": [len(level) for level in levels],
            "simplices": [
                {"verts": s, "witness": witness[s]} for level in levels for s in level
            ],
        }
    )
    return levels, witness, truncated, digest


_CORRUPTIONS = (
    None,
    "type",
    "entry",
    "repeat",
    "order",
    "clash",
    "missing",
    "null",
    "unsorted",
    "facet-repeat",
    "drop-facet",
)


@st.composite
def _bulk_documents(draw):
    """Complex documents of the shapes the reader checks in bulk: ``complex``
    reports of random digraphs, or the simplices of a ``from_simplices``
    complex with permuted, absent or duplicated witnesses, shuffled, some
    dropped for the closure to add back.  At most one item, at a drawn
    position, is then corrupted so that one bulk check fails, or changed so
    that the document leaves the reader's shortcut for ``complex`` reports:
    every item given a witness and one ``verts`` reversed, an item that
    repeats a vertex only one of its facets shows, or one facet dropped from
    a closed document."""
    if draw(st.booleans()):
        g = random_digraph(
            draw(st.integers(1, 7)),
            draw(st.sampled_from((0.3, 0.6, 0.9))),
            draw(st.integers(0, 10**6)),
        )
        k = build_complex(g, draw(st.sampled_from((None, 0, 1, 2))))
        doc = json.loads(documents._dumps(documents._complex_doc(k)))
        items = doc["simplices"]
    else:
        faces = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)
        k = SimplicialComplex.from_simplices(draw(st.lists(faces, min_size=1, max_size=5)))
        doc, items = {}, []
        for s in k.simplices():
            kind = draw(st.sampled_from(("witness", "bare", "drop")))
            if kind == "witness":
                items.append({"verts": list(s), "witness": draw(st.permutations(s))})
            elif kind == "bare":
                items.append({"verts": list(s)})
        items = draw(st.permutations(items))
        for i in draw(st.lists(st.integers(0, len(items)), max_size=3)):
            if items:
                items.insert(i, json.loads(json.dumps(items[i % len(items)])))
        if draw(st.booleans()):
            doc["truncated"] = draw(st.booleans())
        doc["simplices"] = items
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    if corruption is None or not items:
        return doc
    item = items[draw(st.integers(0, len(items) - 1))]
    verts = item["verts"]
    if corruption == "type":  # a non-list verts or witness
        item[draw(st.sampled_from(("verts", "witness")))] = draw(
            st.one_of(st.none(), st.integers(), st.text(max_size=2), st.just({}))
        )
    elif corruption == "entry":
        entries = item["witness"] if "witness" in item and draw(st.booleans()) else verts
        entries[draw(st.integers(0, len(entries) - 1))] = draw(
            st.sampled_from((1.0, 2.5, True, False))
        )
    elif corruption == "repeat":
        verts.insert(draw(st.integers(0, len(verts))), draw(st.sampled_from(verts)))
    elif corruption == "order":  # verts stays sorted
        item["witness"] = draw(
            st.sampled_from(
                (verts[:-1], verts + [7], [7] + verts[1:], verts[:1] * len(verts))
            )
        )
    elif corruption == "clash":
        witness = item.setdefault("witness", sorted(verts))
        twin = {"verts": list(verts), "witness": witness[::-1] if len(verts) > 1 else [7]}
        items.insert(draw(st.integers(0, len(items))), twin)
    elif corruption == "missing":
        del item["verts"]
    elif corruption == "null":
        item["witness"] = None
    elif corruption == "unsorted":  # every item has a witness, one verts is reversed
        for other in items:
            other.setdefault("witness", list(other["verts"]))
        item["verts"].reverse()
    elif corruption == "facet-repeat":  # [a, b, b]: only the facet (b, b) repeats
        a, b = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True))
        twins = [{"verts": [a, b, b]}]
        if draw(st.booleans()):
            twins[0]["witness"] = draw(st.permutations([a, b, b]))
        if draw(st.booleans()):
            twins.append({"verts": sorted([a, b])})
        for twin in draw(st.permutations(twins)):
            items.insert(draw(st.integers(0, len(items))), twin)
    else:  # drop one facet of another item from a closed document
        facets = {
            face
            for other in items
            for face in combinations(other["verts"], len(other["verts"]) - 1)
        }
        dropped = [i for i, other in enumerate(items) if tuple(other["verts"]) in facets]
        if dropped:
            del items[draw(st.sampled_from(dropped))]
    return doc


def _complex_report(text):
    """The complex document ``complex`` writes for the digraph document
    ``text``, parsed."""
    return json.loads(run(["complex"], stdin_text=text)[1])


@settings(max_examples=500, deadline=None)
@given(st.one_of(_DOCUMENTS, _bulk_documents()))
@example(_complex_report('{"vertices": ["a"], "edges": []}'))
@example(_complex_report(_TRIANGLE))
def test_one_pass_reader_matches_the_two_step_oracle(doc):
    if type(doc) is not dict or "simplices" not in doc or {"vertices", "edges"} & set(doc):
        return  # not a complex document
    got = _read_or_message(_read_complex, doc)
    expected = _read_or_message(_complex_document_and_digest_oracle, doc)
    if got != expected:  # only a repeated vertex is read differently
        repeat = r"'simplices' item (\d+) repeats a vertex: .*"
        match = type(got) is str and re.fullmatch(repeat, got)
        assert match, (got, expected)
        index = int(match.group(1))
        verts = doc["simplices"][index]["verts"]
        assert len(set(verts)) < len(verts)
        # ... and it is the first error: no item before it is ill-shaped
        # or repeats a vertex.
        before = dict(doc, simplices=doc["simplices"][:index], truncated=False)
        assert _read_or_message(complex_document_oracle, before) != documents._BAD_SIMPLICES
        assert all(len(set(x["verts"])) == len(x["verts"]) for x in before["simplices"])


def _masks_labels_digest(g, digest):
    return g._out, g._in, g._sym, g.labels, digest


def _read_digraph(doc):
    """The one-walk reader on ``doc``, and on the edgelist spelling of it
    when its labels are "0" .. "n-1" and its edge entries ints: the same
    masks and digest, without labels."""
    kind, g, digest = documents._read_document(json.dumps(doc))
    assert kind == "digraph"
    got = _masks_labels_digest(g, digest)
    vertices, edges = doc.get("vertices", []), doc.get("edges", [])
    if list(map(str, vertices)) == list(map(str, range(len(vertices)))) and all(
        type(x) is int for x in chain.from_iterable(edges)
    ):
        # One spelling per line in turn: plain, a leading zero, a comment.
        lines = [f"# {len(edges)} edges", f" {len(vertices)} "] + [
            (f"{u} {v}", f"0{u}\t{v}", f"{u} {v}  # edge {i}")[i % 3]
            for i, (u, v) in enumerate(edges)
        ]
        h, spelled = documents._parse_edgelist("\n".join(lines))
        assert h.labels is None
        assert _masks_labels_digest(h, spelled) == got[:3] + (None, digest)
    return got


def _digraph_oracle(doc):
    return _masks_labels_digest(*digraph_document_oracle(doc))


def _with_repeats(edges):
    """``edges`` with every other edge repeated and the first entry of every
    third one made a loop."""
    return edges + edges[::2] + [[e[0], e[0]] for e in edges[::3]]


# Digraph documents whose edge entries are mostly the vertices' labels,
# their str() spellings or their indices, with repeated edges and loops.
# The labels include escaped and non-ASCII ones, numeric strings that sort
# against index order and a float that an int entry does not name.
_ODD_LABELS = st.sampled_from(["\u00e9", '"', "\\", "10", "2", "", 2.0])
_LABELLED_DOCUMENTS = st.lists(
    st.one_of(_LABELS, _ODD_LABELS), min_size=1, max_size=6, unique_by=str
).flatmap(
    lambda labels: st.fixed_dictionaries(
        {
            "vertices": st.just(labels),
            "edges": st.lists(
                st.lists(
                    st.sampled_from(
                        labels
                        + [str(x) for x in labels]
                        + list(range(len(labels)))
                        + [float(i) for i in range(len(labels))]
                    ),
                    min_size=2,
                    max_size=2,
                ),
                max_size=12,
            ).map(_with_repeats),
        }
    )
)
# Digraphs of 11 to 30 vertices labelled by their indices, as the digest
# labels an unlabeled digraph, so that "10" sorts before "2"; their int
# edge entries are read from their edgelist spelling too.
_INDEXED_DOCUMENTS = st.integers(11, 30).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "vertices": st.just(list(range(n))),
            "edges": st.lists(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=60
            ).map(_with_repeats),
        }
    )
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_DOCUMENTS, _LABELLED_DOCUMENTS, _INDEXED_DOCUMENTS))
@example(
    {
        "vertices": ["2", "10", "\u00e9", '"', "\\", ""],
        "edges": [["2", "10"], ["10", "2"], ["\u00e9", ""], ['"', "\\"], ["", "\u00e9"]],
    }
)
@example(
    {
        "vertices": list(range(12)),
        "edges": [[10, 2], [2, 10], [11, 1], [0, 11], [9, 10], [3, 4]],
    }
)
@example(
    {"vertices": [0, "a", 1.5, "b"], "edges": [[0, "a"], ["a", 1.5], [3, 0], ["1.5", "b"]]}
)
@example({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a", "b"]]})
@example({"vertices": ["a"], "edges": [["a"]]})
@example({"edges": [[]]})
@example(
    {"vertices": [1.5, 2.0, "x"], "edges": [[1.5, 2.0], ["2.0", "x"], [2, 2], [1.5, 2.0]]}
)
@example({"vertices": [0, 1, 2], "edges": [[0, 0], [0, 1], [0, 1], [1, 0], [2, 2]]})
@example({"vertices": [0, 1], "edges": [[0, 1.0]]})
def test_bulk_digraph_reader_matches_the_per_entry_oracle(doc):
    doc = json.loads(json.dumps(doc))  # as the reader sees it
    if type(doc) is not dict or "simplices" in doc:
        return  # not a digraph document
    got = _read_or_message(_read_digraph, doc)
    assert got == _read_or_message(_digraph_oracle, doc)


# Argument strings: well-formed pieces, near misses and arbitrary text.
_TOKENS = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(
        ["", " ", "x", "1.5", "+2", "-0", " 3 ", "1_0", "0x1", "1e2"]
        + ["\u0663", "\u00b2"]  # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT TWO
    ),
    st.text(max_size=3),
)
_SUBSETS = st.one_of(st.lists(_TOKENS, max_size=5).map(",".join), st.text(max_size=8))
_FIELDS = st.sampled_from(["zp:", "ZP:", "zp", "z", "q", "Q", ""])
_COEFFS = st.one_of(st.tuples(_FIELDS, _TOKENS).map("".join), st.text(max_size=6))
_JOINS = st.sampled_from(["", "/", ".", "e", "E-", "e+", "/-", "e9999", "e-9999"])
_DELTAS = st.one_of(
    st.tuples(_TOKENS, _JOINS, _TOKENS).map("".join),
    st.text(max_size=8),
)
_POINTS = st.one_of(
    st.lists(st.lists(_TOKENS, max_size=3).map(",".join), max_size=4).map(";".join),
    st.text(max_size=10),
)
_ARG_DOCUMENTS = [
    run(["gen", "circulant", "--n", "6", "--m", "2"])[1],
    run(["gen", "figure", "--which", "middle"])[1],
]


@settings(max_examples=150, deadline=None)
@given(_SUBSETS, _COEFFS, _DELTAS, _POINTS)
def test_fuzzed_arguments_end_in_a_report_or_an_input_error(
    subset, coeff, delta, points
):
    # The --opt=value form passes a value that starts with "-" as it is.
    commands = [
        ["pair", f"--subset={subset}"],
        ["les-check", f"--subset={subset}", f"--coeff={coeff}"],
        ["homology", f"--coeff={coeff}"],
        ["fx-sample", "--samples", "20", f"--delta={delta}"],
    ]
    calls = [(argv, text) for text in _ARG_DOCUMENTS for argv in commands]
    for argv, text in calls + [(["gen", "digital", f"--points={points}"], "")]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _main_with_stdin(argv, text)
        assert code in (0, 1), (argv, out.getvalue())
        report, end = json.JSONDecoder().raw_decode(out.getvalue())
        assert type(report) is dict and not out.getvalue()[end:].strip()
        if code == 1:
            assert report["error"]["message"]


# Argument vectors: command and generator names, their flags whole,
# abbreviated or unknown, --opt=value forms, -h, unknown commands and junk.
_COMMANDS = ["gen", "complex", "homology", "pair", "les-check", "pi1"]
_COMMANDS += ["fx-certify", "fx-sample"]
_FLAGS = st.sampled_from(
    ["--format", "--out", "--max-dim", "--coeff", "--reduced", "--subset"]
    + ["--basepoint", "--samples", "--delta", "--seed", "--n", "--m", "--p"]
    + ["--points", "--which", "-h", "--help", "--he", "--co", "--s", "--badflag"]
    + ["--", "-"]
)
_WORDS = st.one_of(
    st.sampled_from(_COMMANDS + ["circulant", "digital", "figure", "random"]),
    st.sampled_from(["left", "json", "edgelist", "z", "zp:2", "0,1", "1/3"]),
    _FLAGS,
    st.tuples(_FLAGS, _TOKENS).map("=".join),
    _TOKENS,
)
_ARGVS = st.tuples(
    st.one_of(
        st.sampled_from(_COMMANDS + ["-h", "--help", "nosuch", "Homology"]), _TOKENS
    ),
    st.lists(_WORDS, max_size=6),
).map(lambda t: [t[0], *t[1]])


# Well-formed argument vectors for every command: its options shuffled, some
# repeated, the required --subset dropped and -h inserted at times, with
# values that convert, fail to convert or start with "-".
_IO_OPTIONS = ["--format", "--out"]
_COMMAND_OPTIONS = {
    ("complex",): _IO_OPTIONS + ["--max-dim"],
    ("homology",): _IO_OPTIONS + ["--coeff", "--reduced", "--max-dim"],
    ("pair",): _IO_OPTIONS + ["--subset"],
    ("les-check",): _IO_OPTIONS + ["--subset", "--coeff"],
    ("pi1",): _IO_OPTIONS + ["--basepoint"],
    ("fx-certify",): _IO_OPTIONS,
    ("fx-sample",): _IO_OPTIONS + ["--samples", "--delta", "--seed"],
    ("gen", "circulant"): ["--n", "--m", "--out"],
    ("gen", "digital"): ["--points", "--out"],
    ("gen", "figure"): ["--which", "--out"],
    ("gen", "random"): ["--n", "--p", "--seed", "--out"],
}
_GOOD_VALUES = {
    "--format": ["json", "edgelist", "xml"],
    "--coeff": ["z", "q", "zp:2"],
    "--subset": ["0,1", "0"],
    "--delta": ["1/3"],
    "--points": ["0,0;1,1"],
    "--which": ["left"],
    "--p": [".5"],
}
_ODD_VALUES = ["", " 7 ", "1_0", "\u0663", "-1", "--", "x"]  # ARABIC-INDIC DIGIT THREE


@st.composite
def _well_formed_argvs(draw):
    head = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    options = _COMMAND_OPTIONS[head]
    names = options + draw(st.lists(st.sampled_from(options), max_size=3))
    if draw(st.integers(0, 4)) == 0:
        names = [name for name in names if name != "--subset"]
    names = draw(st.permutations(names))
    if draw(st.integers(0, 9)) == 0:
        names.insert(draw(st.integers(0, len(names))), "-h")
    argv = list(head)
    for name in names:
        argv.append(name)
        if name not in ("--reduced", "-h"):
            odd = draw(st.integers(0, 7)) == 0
            values = _ODD_VALUES if odd else _GOOD_VALUES.get(name, ["0", "3"])
            argv.append(draw(st.sampled_from(values)))
    return argv


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ARGVS, _well_formed_argvs(), st.just([])))
@example(["homology", "--badflag"])
@example(["nosuch"])
@example(["gen", "random", "--n", "3", "--p", ".5", "extra"])
@example(["les-check", "--subset", "0", "--coeff=zp:2"])
@example(["homology", "--coeff", "z", "--coeff", "q"])
@example(["pi1", "--basepoint", "-1"])
def test_commands_go_straight_to_their_own_parser(argv):
    # The same namespace as the top-level parser gives, or the same exit
    # code with the same usage or help text.
    expected = _parse_outcome(cli._build_parser().parse_args, argv)
    assert _parse_outcome(cli._parse_args, argv) == expected


def test_every_option_uses_only_keywords_the_exact_reader_reads():
    # The exact reader knows type, choices, default, required, help and
    # action="store_true"; an option table with anything else is refused
    # when it is read, at import for the commands.
    tables = [options for _, _, options in cli._COMMANDS.values()]
    for options in tables + [*cli._GENERATORS.values(), cli._IO]:
        cli._exact_table(options)
    for keywords in ({"nargs": "+"}, {"action": "append"}, {"action": "count"}):
        with pytest.raises(ValueError, match="^--many: _read_exact does not read"):
            cli._exact_table({"--many": keywords})


def test_workload_command_lines_never_reach_argparse(monkeypatch):
    # Exactly spelled command lines of every shape the benchmark times are
    # read off the command's own table; a silent fall-back would show here.
    argvs = [
        ["complex"],
        ["homology", "--coeff", "z"],
        ["pair", "--subset", "0,1"],
        ["les-check", "--subset", "0", "--coeff", "zp:2"],
        ["pi1", "--basepoint", "0"],
        ["fx-certify"],
        ["fx-sample", "--samples", "5", "--delta", "1/3", "--seed", "2"],
    ]
    expected = [vars(cli._build_parser().parse_args(argv)) for argv in argvs]
    calls = []
    for name in ("parse_args", "parse_known_args"):
        method = getattr(argparse.ArgumentParser, name)

        def spy(self, *args, _method=method, **kwargs):
            calls.append(_method.__name__)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, name, spy)
    assert [vars(cli._parse_args(argv)) for argv in argvs] == expected
    assert calls == []
    # The spy sees an abbreviation, which argparse decides.
    assert cli._parse_args(["homology", "--co", "q"]).coeff == "q"
    assert calls


def test_the_command_table_builds_the_reference_parsers():
    # Every help text, and the namespaces of the benchmark's command lines,
    # as the parser written out call by call gives them: a typo in a help,
    # default or choice of the table shows here.
    reference, parser = cli_parser_oracle(), cli._build_parser()
    assert parser.format_help() == reference.format_help()
    heads = [[name] for name in reference.commands]
    heads += [["gen", name] for name in ("circulant", "digital", "figure", "random")]
    for head in heads:
        expected = _parse_outcome(reference.parse_args, [*head, "-h"])
        assert expected[0] == 0 and expected[1].startswith("usage: dvrhom " + " ".join(head))
        assert _parse_outcome(parser.parse_args, [*head, "-h"]) == expected
    # Each command with its required options alone shows every default.
    argvs = [
        ["gen", "random", "--n", "14", "--p", ".65", "--seed", "1"],
        ["gen", "random", "--n", "14", "--p", ".65"],
        ["gen", "circulant", "--n", "20", "--m", "4"],
        ["gen", "digital", "--points", "0,0;0,1", "--out", "x.json"],
        ["gen", "figure", "--which", "right"],
        ["complex"],
        ["complex", "--max-dim", "2", "--format", "edgelist"],
        ["homology"],
        ["homology", "--coeff", "zp:3"],
        ["homology", "--reduced"],
        ["pair", "--subset", "0,1,2,3,4,5,6"],
        ["les-check", "--subset", "0,1,2,3"],
        ["les-check", "--subset", "0,1,2,3", "--coeff", "zp:2"],
        ["pi1"],
        ["pi1", "--basepoint", "0"],
        ["fx-certify"],
        ["fx-sample"],
        ["fx-sample", "--samples", "300", "--delta", "1/1000000", "--seed", "7"],
    ]
    for argv in argvs:
        expected = vars(reference.parse_args(argv))
        assert vars(parser.parse_args(argv)) == expected
        assert vars(cli._parse_args(argv)) == expected


def test_cli_reads_no_private_name_of_argparse():
    # Names that start with "_" are not argparse's interface and may change
    # with any Python release; cli.py reads no such attribute of anything,
    # dunders such as __name__ aside.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    names = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "hasattr")
        and isinstance(node.args[1], ast.Constant)
    ]
    private = [x for x in names if str(x).startswith("_") and not str(x).endswith("__")]
    assert private == []
