"""Command-line surface: parse digraphs, run pipelines, emit JSON reports.

Every command writes exactly one JSON object.  The object doubles as the
pipeline document: ``gen`` output carries the digraph keys, ``complex``
output the complex keys, so commands chain over standard streams.  Reports
are byte-identical across runs on identical input (sorted keys, no
timestamps).

Each command is declared once, in ``_COMMANDS`` (``gen`` in ``_GENERATORS``):
its help, options and runner.  A command line that spells each option exactly
is read straight off that table; anything else (abbreviations, help, ``gen``,
usage errors) goes through the argparse parser built from it.

Documents are parsed, checked, written and hashed in ``documents``.  An
``--out`` file that cannot be written is a domain error naming the path.

Exit codes: 0 success, 1 domain error (structured error report on stdout)
or stdout closed by its reader before the report was written, 2 usage
error, 3 internal error (an unexpected exception, reported the same way as
a domain error, without a traceback).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import __version__
from .complexes import build_complex
from .digraph import InputError
from .documents import (  # parse_digraph is importable from here too
    SCHEMA,
    _complex_doc,
    _digest,
    _digraph_doc,
    _dumps,
    _Nodes,
    _parse_edgelist,
    _read_document,
    parse_digraph,
)
from .fxmap import continuity_certificate, sampled_continuity_check
from .generators import circulant, digital_image, figure_digraph, random_digraph
from .homology import (
    HomologyGroup,
    abelianization,
    homology_field,
    homology_integer,
    les_exactness_check,
    pi1_presentation,
    relative_homology,
)


def _load_input(args, stdin):
    """Read stdin into (kind, object, input digest)."""
    text = stdin.read()
    if args.format == "edgelist":
        return ("digraph", *_parse_edgelist(text))
    return _read_document(text)


def _require_digraph(kind, obj):
    if kind != "digraph":
        raise InputError("this command needs a digraph document as input")
    return obj


def _complex_of(kind, obj, max_dim=None):
    if kind == "digraph":
        return build_complex(obj, max_dim)
    if max_dim is not None:
        raise InputError("--max-dim applies to digraph input only")
    return obj


def _groups_json(groups):
    return [
        {"dim": n, "betti": g.betti, "torsion": list(g.torsion)}
        for n, g in enumerate(groups)
    ]


def _parse_coeff(spec, allow_integer=True):
    """A ``--coeff`` value as (canonical label z, q or zp:<p>; "z", "q" or p)."""
    spec = spec.lower()
    if spec == "z":
        if not allow_integer:
            raise InputError("this command needs field coefficients (q or zp:<p>)")
        return "z", "z"
    if spec == "q":
        return "q", "q"
    if spec.startswith("zp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise InputError(f"bad coefficient spec {spec!r}") from None
        return f"zp:{p}", p
    raise InputError(f"bad coefficient spec {spec!r}")


def _parse_subset(text):
    try:
        return tuple(sorted({int(x) for x in text.split(",") if x.strip() != ""}))
    except ValueError:
        raise InputError(f"bad subset {text!r}; expected comma-separated integers") from None


def _parse_fraction(text):
    # Reports print the number and its halvings, and str() refuses integers
    # past 4300 digits: 4096 bits at most.  Fraction expands an exponent
    # before any check can run, so a larger exponent is refused first.
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > 4096:
            raise ValueError
        x = Fraction(text)
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > 4096:
            raise ValueError
        return x
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational number {text!r} (at most 4096 bits)") from None


def _run_gen(args):
    if args.generator == "circulant":
        g = circulant(args.n, args.m)
        params = {"generator": "circulant", "n": args.n, "m": args.m}
    elif args.generator == "digital":
        points = []
        for chunk in args.points.split(";"):
            chunk = chunk.strip()
            if chunk:
                try:
                    points.append(tuple(int(c) for c in chunk.split(",")))
                except ValueError:
                    raise InputError(f"bad lattice point {chunk!r}") from None
        g = digital_image(points)
        params = {"generator": "digital", "points": [list(p) for p in points]}
    elif args.generator == "figure":
        g = figure_digraph(args.which)
        params = {"generator": "figure", "which": args.which}
    else:
        g = random_digraph(args.n, args.p, args.seed)
        params = {"generator": "random", "n": args.n, "p": args.p, "seed": args.seed}
    seeded = {"seed": args.seed} if "seed" in params else {}
    return {**_digraph_doc(g), **seeded}, _digest(params)


def _run_complex(args, kind, obj):
    return _complex_doc(build_complex(_require_digraph(kind, obj), args.max_dim))


def _run_homology(args, kind, obj):
    label, coeff = _parse_coeff(args.coeff)
    k = _complex_of(kind, obj, args.max_dim)
    if coeff == "z":
        groups = homology_integer(k, reduced=args.reduced)
    else:
        betti = homology_field(k, coeff, reduced=args.reduced)
        groups = [HomologyGroup(b) for b in betti]
    return {
        "coefficients": label,
        "groups": _groups_json(groups),
        "reduced": bool(args.reduced),
        "truncated": k.truncated,
    }


def _run_pair(args, kind, obj):
    k = _complex_of(kind, obj)
    subset = _parse_subset(args.subset)
    return {
        "subset": list(subset),
        "groups": _groups_json(relative_homology(k, subset)),
        **({"truncated": True} if k.truncated else {}),
    }


def _run_les(args, kind, obj):
    label, coeff = _parse_coeff(args.coeff, allow_integer=False)
    k = _complex_of(kind, obj)
    subset = _parse_subset(args.subset)
    report = les_exactness_check(k, subset, coeff)
    return {
        "coefficients": label,
        "subset": list(subset),
        "nodes": _Nodes(
            dict(zip(("name", "dim", "rank_in", "rank_out", "exact"), node))
            for node in report.nodes
        ),
        "exact": report.exact,
        **({"truncated": True} if k.truncated else {}),
    }


def _run_pi1(args, kind, obj):
    # pi1 reads the 2-skeleton alone.  Capped at dimension 2, a complex is
    # truncated only when it has 3-simplices, so it keeps its 2-simplices and
    # pi1 accepts it; the report has no "truncated" key.
    k = build_complex(obj, 2) if kind == "digraph" else obj
    pres = pi1_presentation(k, args.basepoint)
    ab = abelianization(pres)
    return {
        "basepoint": args.basepoint,
        "generators": list(pres.generators),
        "relators": [list(w) for w in pres.relators],
        "abelianization": {"betti": ab.betti, "torsion": list(ab.torsion)},
    }


def _run_fx_certify(args, kind, obj):
    g = _require_digraph(kind, obj)
    k = build_complex(g)
    rep = continuity_certificate(k, g)
    counterexample = None
    if rep.counterexample is not None:
        s, tau, v, target = rep.counterexample
        counterexample = {
            "simplex": list(s),
            "tie": list(tau),
            "vertex": v,
            "target": target,
        }
    return {
        "passed": rep.passed,
        "simplices": rep.simplices,
        "checks": rep.checks,
        "counterexample": counterexample,
    }


def _run_fx_sample(args, kind, obj):
    g = _require_digraph(kind, obj)
    k = build_complex(g)
    delta = _parse_fraction(args.delta)
    rep = sampled_continuity_check(k, g, args.samples, delta, args.seed)
    failures = [
        {
            "index": f.index,
            "carrier": list(f.carrier),
            "base": f.base_value,
            "perturbed": f.perturbed_value,
            "pass_delta": None if f.pass_delta is None else str(f.pass_delta),
        }
        for f in rep.failures
    ]
    return {
        "seed": args.seed,
        "samples": rep.samples,
        "delta": str(rep.delta),
        "checked": rep.checked,
        "failure_count": rep.failure_count,
        "failure_rate": str(rep.failure_rate),
        "failures": failures,
    }


# Options as add_argument keywords, of which the exact reader knows type,
# choices, default, required and action="store_true".
_NEEDED = {"required": True}
_NEEDED_INT = {"type": int, "required": True}
_INT = {"type": int}
_SEED = {"type": int, "default": 0}
_POINTS = "semicolon-separated lattice points, e.g. '1,0;0,1;-1,0'"
_GENERATORS = {  # each then takes --out
    "circulant": {"--n": _NEEDED_INT, "--m": _NEEDED_INT},
    "digital": {"--points": {"required": True, "help": _POINTS}},
    "figure": {"--which": {"choices": ("left", "middle", "right"), "required": True}},
    "random": {
        "--n": _NEEDED_INT, "--p": {"type": float, "required": True}, "--seed": _SEED
    },
}
# Each command but gen: its help, the runner that turns (args, input kind,
# input object) into its report's keys, and its options after _IO.
_IO = {"--format": {"choices": ("json", "edgelist"), "default": "json"}, "--out": {}}
_COMMANDS = {
    "complex": (
        "build the complex, emit f-vector and witnesses",
        _run_complex,
        {"--max-dim": _INT},
    ),
    "homology": (
        "homology groups of the complex",
        _run_homology,
        {
            "--coeff": {"default": "z"},
            "--reduced": {"action": "store_true"},
            "--max-dim": _INT,
        },
    ),
    "pair": (
        "relative homology against a vertex subset", _run_pair, {"--subset": _NEEDED}
    ),
    "les-check": (
        "long-exact-sequence exactness report",
        _run_les,
        {"--subset": _NEEDED, "--coeff": {"default": "q"}},
    ),
    "pi1": (
        "fundamental group presentation",
        _run_pi1,
        {"--basepoint": {"type": int, "default": 0}},
    ),
    "fx-certify": ("combinatorial continuity certificate", _run_fx_certify, {}),
    "fx-sample": (
        "sampled continuity check",
        _run_fx_sample,
        {
            "--samples": {"type": int, "default": 1000},
            "--delta": {"default": "1/1000"},
            "--seed": _SEED,
        },
    ),
}


@functools.lru_cache(maxsize=None)
def _build_parser():
    # Built on first use and shared: parse_args keeps no state between calls,
    # and building the parser costs far more than using it.
    parser = argparse.ArgumentParser(
        prog="dvrhom",
        description="Homology of finite digraphs via directed Vietoris-Rips complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen", help="emit a generated digraph document")
    gsub = gen.add_subparsers(dest="generator", required=True)
    parsers = [(gsub.add_parser(g), {**o, "--out": {}}) for g, o in _GENERATORS.items()]
    for name, (text, _, options) in _COMMANDS.items():
        parsers.append((sub.add_parser(name, help=text), {**_IO, **options}))
    for command, options in parsers:
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
    return parser


def _exact_table(options):
    """The flags, defaults and required dests that ``_read_exact`` reads;
    an option with a keyword that it does not read is refused."""
    flags, defaults, required = {}, {}, set()
    for flag, keywords in {**_IO, **options}.items():
        extra = keywords.keys() - {"type", "choices", "default", "required", "help"}
        if extra - {"action"} or keywords.get("action", "store_true") != "store_true":
            raise ValueError(f"{flag}: _read_exact does not read {keywords}")
        dest = flag[2:].replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        convert = None if store_true else keywords.get("type", str)
        flags[flag] = dest, convert, keywords.get("choices")
        if keywords.get("required"):
            required.add(dest)
        else:
            defaults[dest] = keywords.get("default", False if store_true else None)
    return flags, defaults, required


_EXACT = {name: _exact_table(options) for name, (_, _, options) in _COMMANDS.items()}


def _parse_args(argv):
    """``_build_parser().parse_args(argv)``, read off ``_EXACT`` when each word
    is a flag of the command or a value that does not start with "-",
    converts and is one of the choices, and no required option is missing."""
    table = _EXACT.get(argv[0]) if argv else None
    if table is not None:
        values = _read_exact(table, argv[1:])
        if values is not None:
            return argparse.Namespace(command=argv[0], **values)
    return _build_parser().parse_args(argv)


def _read_exact(table, words):
    """``words`` as a dest -> value dict, or None to leave them to argparse."""
    flags, defaults, required = table
    given = {}
    words = iter(words)
    for word in words:
        if word not in flags:
            return None
        dest, convert, choices = flags[word]
        if convert is None:
            given[dest] = True
            continue
        word = next(words, "-")
        if word.startswith("-"):
            return None
        try:
            given[dest] = value = convert(word)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
    return {**defaults, **given} if required <= given.keys() else None


def _emit(report, out_path, stdout):
    text = _dumps(report)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            message = f"cannot write --out {out_path!r}: {e.strerror or e}"
            raise InputError(message) from None
    else:
        stdout.write(text)


def run_command(argv, stdin=None, stdout=None):
    """Execute one subcommand; returns the report written to the stream."""
    stdout = stdout if stdout is not None else sys.stdout
    args = _parse_args(argv)
    if args.command == "gen":
        extra, digest = _run_gen(args)
    else:
        kind, obj, digest = _load_input(args, sys.stdin if stdin is None else stdin)
        extra = _COMMANDS[args.command][1](args, kind, obj)
    report = {
        "schema": SCHEMA,
        "command": " ".join(argv),
        "input_digest": digest,
        "tool": {"name": "dvrhom", "version": __version__},
        **extra,
    }
    _emit(report, args.out, stdout)
    return report


def _report_error(argv, message):
    error = {
        "schema": SCHEMA,
        "command": " ".join(argv),
        "error": {"message": message},
    }
    sys.stdout.write(_dumps(error))


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            run_command(argv)
            code = 0
        except InputError as exc:
            _report_error(argv, str(exc))
            code = 1
        except BrokenPipeError:
            raise
        except Exception as exc:
            _report_error(argv, f"internal error: {type(exc).__name__}: {exc}")
            code = 3
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the flush at exit goes to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
