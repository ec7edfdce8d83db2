"""The report records, all named tuples.

Every CLI call is a fresh process, so the records are built without
``dataclasses``, which generates and execs the source of their methods
at every import; the first test holds the CLI's import to that.  The last
two tests hold the package's public surface: ``__all__`` is what a star
import binds, and every public top-level function or class in ``src/`` has
a caller there.
"""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dvrhom
from dvrhom import (
    CertificateReport,
    ExactnessReport,
    HomologyGroup,
    InputError,
    Presentation,
    SampleReport,
    SimplicialMapReport,
)
from dvrhom.fxmap import SampleFailure
from dvrhom.homology import NodeReport
from oracles import RealizationPoint

SRC = Path(__file__).resolve().parents[1] / "src" / "dvrhom"


def test_cli_import_pulls_in_no_code_generators():
    code = (
        "import sys; before = set(sys.modules); import dvrhom.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "dvrhom.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


NODE = NodeReport("H1(A)", 1, 0, 1, True)
POINT = RealizationPoint((2, 0), (Fraction(1, 3), Fraction(2, 3)))
FAILURE = SampleFailure(2, (0, 1), 1, 0, Fraction(1, 8))

# (type, its fields by name, one field with another value, hashable)
RECORDS = [
    (
        SimplicialMapReport,
        {"vertex_map": (0, 0), "entries": (((0, 1), (0,)),),
         "degenerate": ((0, 1),), "all_images_present": True},
        ("all_images_present", False),
        True,
    ),
    (
        RealizationPoint,
        {"witness": (2, 0), "coords": (Fraction(1, 3), Fraction(2, 3))},
        ("witness", (0, 2)),
        True,
    ),
    (
        CertificateReport,
        {"passed": False, "simplices": 3, "checks": 4,
         "counterexample": ((0, 1), (0, 1), 0, 1)},
        ("checks", 5),
        True,
    ),
    (
        SampleFailure,
        {"index": 2, "carrier": (0, 1), "base_value": 1, "perturbed_value": 0,
         "pass_delta": Fraction(1, 8)},
        ("pass_delta", None),
        True,
    ),
    (
        SampleReport,
        {"samples": 10, "delta": Fraction(1, 3), "seed": 4, "checked": 8,
         "failures": (FAILURE,)},
        ("seed", 5),
        True,
    ),
    (HomologyGroup, {"betti": 1, "torsion": (2,)}, ("torsion", (3,)), True),
    (
        NodeReport,
        {"name": "H1(A)", "dim": 1, "rank_in": 0, "rank_out": 1, "exact": True},
        ("exact", False),
        True,
    ),
    # les_exactness_check lists its nodes, so its reports do not hash.
    (ExactnessReport, {"field": "zp:2", "nodes": [NODE], "exact": True},
     ("field", "q"), False),
    (Presentation, {"generators": ("a",), "relators": ((1, 1),)},
     ("relators", ()), True),
]


@pytest.mark.parametrize(
    "cls, fields, change, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_construct_compare_and_hash(cls, fields, change, hashable):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    key, value = change
    assert by_keyword != cls(**{**fields, key: value})
    if hashable:
        assert hash(by_keyword) == hash(by_position)
        assert len({by_keyword, by_position}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_keyword)
    assert by_keyword == tuple(fields.values())
    assert by_keyword._asdict() == fields
    assert by_keyword._replace(**{key: value}) == cls(**{**fields, key: value})
    for name in (key, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)


def test_record_defaults_and_derived_values():
    assert HomologyGroup(3).torsion == ()
    assert HomologyGroup(0).is_zero() and not HomologyGroup(0, (2,)).is_zero()
    report = SampleReport(10, Fraction(1, 3), 4, 8, (FAILURE,))
    assert (report.failure_count, report.failure_rate) == (1, Fraction(1, 8))
    assert SampleReport(0, Fraction(1), 0, 0, ()).failure_rate == 0


def test_record_reprs():
    assert repr(HomologyGroup(0)) == "0"
    assert repr(HomologyGroup(1, (2,))) == "Z + Z/2"
    assert repr(HomologyGroup(3, (2, 4))) == "Z^3 + Z/2 + Z/4"
    assert repr(NODE) == (
        "NodeReport(name='H1(A)', dim=1, rank_in=0, rank_out=1, exact=True)"
    )


BAD_POINTS = [
    ((0, 0), (Fraction(1, 2), Fraction(1, 2)), "repeats a vertex"),
    ((0, 1), (1,), "coordinate count"),
    ((), (), "nonempty carrier"),
    ((0, 1), (Fraction(3, 2), Fraction(-1, 2)), "nonnegative"),
    ((0, 1), (Fraction(3, 4), Fraction(3, 4)), "sum to 1"),
]


def test_realization_points_normalise_through_every_constructor():
    for p in (
        RealizationPoint([2, 0], ["1/3", Fraction(2, 3)]),
        RealizationPoint._make(([2, 0], (Fraction(1, 3), "2/3"))),
        POINT._replace(witness=[2, 0], coords=["1/3", "2/3"]),
    ):
        assert p == POINT
        assert type(p.witness) is tuple and type(p.coords) is tuple
        assert all(type(c) is Fraction for c in p.coords)
    assert RealizationPoint((0, 1), (0.25, 0.75)).coords == (
        Fraction(1, 4), Fraction(3, 4)
    )


@pytest.mark.parametrize("witness, coords, message", BAD_POINTS)
def test_realization_points_are_checked_through_every_constructor(
    witness, coords, message
):
    with pytest.raises(InputError, match=message):
        RealizationPoint(witness, coords)
    with pytest.raises(InputError, match=message):
        RealizationPoint._make((witness, coords))
    with pytest.raises(InputError, match=message):
        POINT._replace(witness=witness, coords=coords)


# Names that no command called; they live in tests/oracles.py.
MOVED = {
    "is_simplex", "check_full_subcomplex", "check_cone", "RealizationPoint",
    "point_in", "barycenter", "tie_set", "evaluate_fx", "carrier_point",
    "closure_of", "interior_of", "minimal_neighborhood", "induced_subgraph",
    "is_symmetric",
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dvrhom import *", namespace)
    del namespace["__builtins__"]
    assert len(set(dvrhom.__all__)) == len(dvrhom.__all__)
    assert namespace.keys() == set(dvrhom.__all__)
    assert all(namespace[name] is getattr(dvrhom, name) for name in namespace)
    modules = [dvrhom] + [
        importlib.import_module(f"dvrhom.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    for module in modules:
        assert not MOVED & vars(module).keys(), module.__name__


# Public names that no command calls yet, kept for planned work: map_complex
# is ROADMAP item 10 (induced maps through the mapping cone), and
# is_interior_cover is item 12 (Mayer-Vietoris for interior covers).
UNCALLED = {"map_complex", "is_interior_cover"}


def _names(node):
    """Every name that ``node`` reads, attribute names and imports included."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_public_definition_in_src_has_a_caller():
    """A public top-level function or class (or a record made by a call,
    such as a named tuple) must be named somewhere in ``src/`` outside its
    own definition.  ``__init__.py`` does not count: exporting a name does
    not call it."""
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            # An assignment's targets (``X.__doc__ = ...``) do not use X.
            names = set(_names(node.value if isinstance(node, ast.Assign) else node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
                names.discard(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = path.name
                        names.discard(target.id)
            if path.name != "__init__.py":
                referenced |= names
    uncalled = {
        name: module
        for name, module in defined.items()
        if not name.startswith("_") and name not in referenced | UNCALLED
    }
    assert not uncalled
    assert UNCALLED <= defined.keys()
