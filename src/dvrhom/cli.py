"""Command-line surface: parse digraphs, run pipelines, emit JSON reports.

Every command writes exactly one JSON object.  The object doubles as the
pipeline document: ``gen`` output carries the digraph keys, ``complex``
output the complex keys, so commands chain over standard streams.  Reports
are byte-identical across runs on identical input (sorted keys, no
timestamps).

Arguments are parsed by ``_parse_args`` on one of two paths.  A command
line that spells each option of its command exactly is read straight off
that command's own argparse actions; anything else (abbreviations,
``--opt=value``, help, ``gen``, usage errors) goes through the top-level
parser, which alone writes usage and error text.

Documents are parsed, checked, written and hashed in ``documents``.  An
``--out`` file that cannot be written is a domain error naming the path.

Exit codes: 0 success, 1 domain error (structured error report on stdout),
2 usage error, 3 internal error (an unexpected exception, reported the same
way as a domain error, without a traceback).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import __version__
from .complexes import build_complex, restrict_to
from .digraph import InputError
from .documents import (  # parse_digraph is importable from here too
    SCHEMA,
    _complex_digest,
    _complex_doc,
    _digest,
    _digraph_digest,
    _digraph_doc,
    _dumps,
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
    if getattr(args, "format", "json") == "edgelist":
        g = _parse_edgelist(text)
        return "digraph", g, _digraph_digest(g)
    kind, obj = _read_document(text)
    digest = _complex_digest if kind == "complex" else _digraph_digest
    return kind, obj, digest(obj)


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


@functools.lru_cache(maxsize=None)
def _build_parser():
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


def _parse_args(argv):
    """``_build_parser().parse_args(argv)``, read off the command's own table.

    The top-level parser hands everything after a command name to that
    command's parser and adds only the name.  When each word after the name
    is an exact option string of a plain store or store_true action, each
    value is a word that does not start with "-", converts with the action's
    type and is one of its choices, and every required option is given, the
    namespace is read straight off that parser's actions, the last value of
    a repeated option winning as in argparse.  Anything else (abbreviations,
    ``--opt=value``, help, negative numbers, ``--``, a bad value, a missing
    or extra argument, ``gen`` with its positional generator) goes through
    the top-level parser, which decides it and reports errors with its own
    usage.
    """
    top = _build_parser()
    parser = top.commands.get(argv[0]) if argv else None
    if parser is not None:
        values = _read_exact(parser, argv[1:])
        if values is not None:
            args = argparse.Namespace(command=argv[0])
            vars(args).update(values)
            return args
    return top.parse_args(argv)


def _read_exact(parser, words):
    """The dest -> value dict ``parser`` gives ``words``, or None when the
    words are not in the exactly spelled form ``_parse_args`` describes."""
    table = parser._option_string_actions
    given = {}
    i, n = 0, len(words)
    while i < n:
        action = table.get(words[i])
        if type(action) is argparse._StoreTrueAction:
            given[action] = action.const
            i += 1
            continue
        if (
            type(action) is not argparse._StoreAction
            or action.nargs is not None
            or i + 1 == n
            or words[i + 1].startswith("-")
        ):
            return None
        try:
            value = (action.type or str)(words[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
        i += 2
    values = {}
    for action in parser._actions:
        if action in given:
            values[action.dest] = given[action]
        elif action.required or not action.option_strings:
            return None
        elif action.default != argparse.SUPPRESS:  # all but -h
            values[action.dest] = action.default
    return values


def _run_gen(args):
    if args.generator == "circulant":
        g = circulant(args.n, args.m)
        params = {"generator": "circulant", "n": args.n, "m": args.m}
        seed = None
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
        seed = None
    elif args.generator == "figure":
        g = figure_digraph(args.which)
        params = {"generator": "figure", "which": args.which}
        seed = None
    else:
        g = random_digraph(args.n, args.p, args.seed)
        params = {"generator": "random", "n": args.n, "p": args.p, "seed": args.seed}
        seed = args.seed
    return _digraph_doc(g), _digest(params), seed


def _run_homology(args, kind, obj):
    label, coeff = _parse_coeff(args.coeff)
    k = _complex_of(kind, obj, args.max_dim)
    if coeff == "z":
        groups = homology_integer(k, reduced=args.reduced).groups
    else:
        betti = homology_field(k, coeff, reduced=args.reduced)
        groups = [HomologyGroup(b) for b in betti]
    return {
        "coefficients": label,
        "groups": _groups_json(groups),
        "reduced": bool(args.reduced),
        "truncated": k.truncated,
    }


def _subset_subcomplex(k, subset_text):
    subset = _parse_subset(subset_text)
    vertex_ids = {s[0] for s in k.by_dimension[0]} if k.by_dimension else set()
    for v in subset:
        if v not in vertex_ids:
            raise InputError(f"subset vertex {v} is not a vertex of the complex")
    return subset, restrict_to(k, subset)


def _run_pair(args, kind, obj):
    k = _complex_of(kind, obj)
    subset, sub = _subset_subcomplex(k, args.subset)
    result = relative_homology(k, sub)
    return {
        "subset": list(subset),
        "groups": _groups_json(result.groups),
        **({"truncated": True} if result.truncated else {}),
    }


def _run_les(args, kind, obj):
    label, coeff = _parse_coeff(args.coeff, allow_integer=False)
    k = _complex_of(kind, obj)
    subset, sub = _subset_subcomplex(k, args.subset)
    report = les_exactness_check(k, sub, coeff)
    return {
        "coefficients": label,
        "subset": list(subset),
        "nodes": [
            {
                "name": node.name,
                "dim": node.dim,
                "rank_in": node.rank_in,
                "rank_out": node.rank_out,
                "exact": node.exact,
            }
            for node in report.nodes
        ],
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
        "samples": rep.samples,
        "delta": str(rep.delta),
        "checked": rep.checked,
        "failure_count": rep.failure_count,
        "failure_rate": str(rep.failure_rate),
        "failures": failures,
    }


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
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    args = _parse_args(argv)
    command = " ".join(argv)
    seed = None
    if args.command == "gen":
        extra, digest, seed = _run_gen(args)
    else:
        kind, obj, digest = _load_input(args, stdin)
        if args.command == "complex":
            g = _require_digraph(kind, obj)
            extra = _complex_doc(build_complex(g, args.max_dim))
        elif args.command == "homology":
            extra = _run_homology(args, kind, obj)
        elif args.command == "pair":
            extra = _run_pair(args, kind, obj)
        elif args.command == "les-check":
            extra = _run_les(args, kind, obj)
        elif args.command == "pi1":
            extra = _run_pi1(args, kind, obj)
        elif args.command == "fx-certify":
            extra = _run_fx_certify(args, kind, obj)
        elif args.command == "fx-sample":
            extra = _run_fx_sample(args, kind, obj)
            seed = args.seed
        else:  # pragma: no cover - argparse rejects unknown commands
            raise InputError(f"unknown command {args.command!r}")
    report = {
        "schema": SCHEMA,
        "command": command,
        "input_digest": digest,
        "tool": {"name": "dvrhom", "version": __version__},
    }
    if seed is not None:
        report["seed"] = seed
    report.update(extra)
    _emit(report, getattr(args, "out", None), stdout)
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
        run_command(argv)
    except InputError as exc:
        _report_error(argv, str(exc))
        return 1
    except Exception as exc:
        _report_error(argv, f"internal error: {type(exc).__name__}: {exc}")
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
