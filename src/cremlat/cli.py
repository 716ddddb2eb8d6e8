"""Batch command line front-end; every subcommand prints JSON to stdout.

Exit codes: 0 on success, 1 on a domain error (a well-formed request whose
mathematics refuses: non-loxodromic input to reduce, resource guards, ...),
2 on a usage error (unknown flags, malformed words/polynomials/triples, a
negative count; the message names the offending position where it can).
Every parser raises :class:`cremlat.InputSyntaxError` or a subclass, so the
exit code follows the type of the exception, never its message.  Each
``cmd_*`` function returns its output text, and :func:`main` prints it.

A subcommand loads only the layer modules it runs, besides the package root
and this module; where no bytecode is written (``PYTHONDONTWRITEBYTECODE``),
these are the modules of the package that it compiles:

* ``bounds``: ``bounds``;
* ``classify-number`` and ``salem-enum``: ``salem`` and ``roots``;
* ``fk-spectrum``: ``orbits``, ``salem`` and ``roots``;
* ``degseq``: ``birmap``, with ``intmat`` where a gcd interpolates, and
  ``roots`` for ``--monomial``;
* ``weyl-eval``: ``weyl``, ``lattice`` and ``intmat``;
* ``weyl-normalize``: ``normalform``, ``weyl`` and ``lattice``;
* ``spectrum``: ``spectral``, ``roots``, ``bounds``, ``weyl``, ``lattice`` and
  ``intmat``;
* ``reduce``: those of ``spectrum``, and ``reduction``;
* ``realizable``: ``realizable``, ``lattice`` and ``intmat``.

Importing this module binds every other layer module through
:class:`importlib.util.LazyLoader`, which puts it in ``sys.modules`` at once
and runs it on its first attribute access.  Function-local imports would
load as little, but leave the layers out of ``sys.modules`` until a command
runs, where outside-in tracers (such as ``bench/tracer.py``) look for them
right after ``import cremlat.cli``.  Likewise :func:`build_parser` builds
only the subparser of the command it is given.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import re
import sys
from fractions import Fraction

from . import DEFAULT_PRIME, InputSyntaxError, SyntaxErrorAt


def _lazy(name: str):
    """The module cremlat.<name>, in sys.modules now and run on first use."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        loader.exec_module(module)
    return sys.modules[fullname]


# intmat too, which no command calls directly, so that every layer module is
# in sys.modules once this module is imported
(birmap, bounds, intmat, lattice, normalform, orbits, realizable, reduction, roots, salem,
 spectral, weyl) = map(_lazy, ("birmap", "bounds", "intmat", "lattice", "normalform", "orbits",
                               "realizable", "reduction", "roots", "salem", "spectral", "weyl"))


def _parse_vector(text: str, names: dict) -> lattice.ClassVector:
    """The four normal-form shapes: e0, e(q), e0-e(q), 3e0-e(q1)-...-e(qk).
    Spaces may stand around each of 3, '*', e0, '-' and a name in e( ), as
    in the word grammar; one inside a name is an error."""
    text = re.sub(r"\s*([()*-])\s*", r"\1", text.strip())
    if text == "e0":
        return lattice.e0()
    m = re.fullmatch(r"e\(([^()]*)\)", text)
    if m:
        return lattice.e(weyl.named_point(m.group(1), names))
    m = re.fullmatch(r"e0-e\(([^()]*)\)", text)
    if m:
        return lattice.e0() - lattice.e(weyl.named_point(m.group(1), names))
    m = re.fullmatch(r"3(?:\*|\s*)e0((?:-e\([^()]*\))+)", text)
    if m:
        pts = re.findall(r"-e\(([^()]*)\)", m.group(1))
        if len(set(pts)) < len(pts):
            raise SyntaxErrorAt(f"the points of 3e0-e(q1)-... must be distinct in {text!r}", 0)
        vec = lattice.ClassVector(3, {})
        for name in pts:
            vec = vec - lattice.e(weyl.named_point(name, names))
        return vec
    raise SyntaxErrorAt(f"cannot parse vector {text!r}: "
                        "expected e0, e(q), e0-e(q) or 3e0-e(q1)-...", 0)


def cmd_classify_number(args) -> str:
    poly = salem.parse_poly(args.polynomial)
    cls = salem.classify_number(poly)
    return json.dumps({
        "kind": cls.kind,
        "root": cls.dominant_root,
        "stripped": roots.format_poly(cls.stripped) if cls.stripped else None,
        "notes": list(cls.notes),
    })


def cmd_salem_enum(args) -> str:
    if not math.isfinite(args.upper):  # nan, inf, or a decimal past the float range
        raise SyntaxErrorAt(f"--upper {args.upper} is not a finite number", 0)
    found = salem.enumerate_salem(args.degree_bound, args.upper)
    return json.dumps([
        {"polynomial": roots.format_poly(p), "root": r} for p, r in found
    ])


def cmd_weyl_eval(args) -> str:
    w, _ = weyl.parse_word(args.word)
    h = weyl.realize(w)
    return json.dumps({
        "degree": weyl.degree(h),
        "image_e0": lattice.render(weyl.apply(h, lattice.e0())),
        "support": [repr(p) for p in h.support],
        "word": repr(w),
    })


def cmd_weyl_normalize(args) -> str:
    w, names = weyl.parse_word(args.word)
    v = _parse_vector(args.vector, names)
    nw = normalform.normalize_increasing(w, v)
    return json.dumps({
        "word": repr(nw),
        "image": lattice.render(nw.apply(v)),
        "partial_degrees": [str(d) for d in normalform.increasing_degrees(nw, v)],
    })


def cmd_spectrum(args) -> str:
    w, _ = weyl.parse_word(args.word)
    h = weyl.realize(w)
    return json.dumps(spectral.spectrum_report(h))


def cmd_reduce(args) -> str:
    w, _ = weyl.parse_word(args.word)
    h = weyl.realize(w)
    return "\n".join(reduction.reduce(h, budget=args.budget).json_lines())


def cmd_realizable(args) -> str:
    report = realizable.realizable_jonquieres(realizable.read_config(args.config), args.m)
    return json.dumps({"status": report.status, "condition": report.condition,
                       "witness": report.witness})


def cmd_fk_spectrum(args) -> str:
    entries = orbits.lambda_sequence(args.m, range(2, args.kmax + 1))
    return json.dumps({
        "m": args.m,
        "limit": orbits.lambda_limit(args.m),
        "entries": [{"k": ent.k, "lambda": ent.value, "class": ent.kind} for ent in entries],
    })


def cmd_degseq(args) -> str:
    if args.monomial:
        try:
            entries = [int(x) for x in args.monomial.split(",")]
        except ValueError:
            entries = []
        if len(entries) != 4:
            raise SyntaxErrorAt("--monomial needs a,b,c,d", 0)
        f = birmap.monomial_map([[entries[0], entries[1]], [entries[2], entries[3]]])
        degs = birmap.monomial_iterates(f, args.n)
        return json.dumps({"degrees": degs, "truncated": False, "lambda": birmap.monomial_lambda(f)})
    if not args.map:
        raise SyntaxErrorAt("degseq needs --map or --monomial", 0)
    prime = DEFAULT_PRIME if args.prime_field else None
    f = birmap.parse_triple(args.map, prime)
    if not birmap.jacobian(f):
        raise ValueError("the Jacobian determinant of the map vanishes identically, "
                         "so it is not birational")
    degs, truncated = birmap.iterate_degrees(f, args.n)
    return json.dumps({"degrees": degs, "truncated": truncated})


def cmd_bounds(args) -> str:
    if args.degrees:
        report = bounds.bounds(args.degrees[0], args.degrees[1])
    elif args.lam is not None:
        try:
            lam = Fraction(args.lam) if "/" in args.lam or "." not in args.lam else float(args.lam)
        except (ValueError, ZeroDivisionError) as exc:
            raise SyntaxErrorAt(f"--lam {args.lam!r} is not a number", 0) from exc
        if lam == math.inf:  # a decimal past the float range; 1e400 fails in bounds
            raise OverflowError(f"--lam {args.lam} is too large for a float")
        report = bounds.bounds(lam)
    else:
        raise SyntaxErrorAt("bounds needs --lam or --degrees", 0)
    return json.dumps(report.as_dict())


# name -> (function, help, {flag: keyword arguments of add_argument})
COMMANDS = {
    "classify-number": (cmd_classify_number, "classify a monic integer polynomial",
                        {"polynomial": {}}),
    "salem-enum": (cmd_salem_enum, "exhaustive bounded Salem search",
                   {"--degree-bound": {"type": int, "required": True},
                    "--upper": {"type": float, "required": True}}),
    "weyl-eval": (cmd_weyl_eval, "realize a word and print its degree data", {"word": {}}),
    "weyl-normalize": (cmd_weyl_normalize, "rewrite a word with increasing degrees",
                       {"word": {}, "--vector": {"default": "e0"}}),
    "spectrum": (cmd_spectrum, "spectral report of a word", {"word": {}}),
    "reduce": (cmd_reduce, "degree reduction loop, one JSON line per step",
               {"word": {}, "--budget": {"type": int, "default": 200}}),
    "realizable": (cmd_realizable, "base-point realizability of a configuration",
                   {"--config": {"required": True, "help": "JSON file, or - for stdin"},
                    "--m": {"type": int, "required": True}}),
    "fk-spectrum": (cmd_fk_spectrum, "truncated-orbit spectral radii",
                    {"--m": {"type": int, "required": True},
                     "--kmax": {"type": int, "required": True}}),
    "degseq": (cmd_degseq, "degree sequence of a coordinate triple",
               {"--map": {"help": "triple like [y*z : z*x : x*y]"},
                "--monomial": {"help": "a,b,c,d exponent matrix entries"},
                "-n": {"type": int, "default": 8},
                "--prime-field": {"action": "store_true"}}),
    "bounds": (cmd_bounds, "explicit bound formulas",
               {"--lam": {"help": "dynamical degree (rational or decimal)"},
                "--degrees": {"type": int, "nargs": 2,
                              "help": "two degrees for the conjugator bound"}}),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the command line, for the arguments argv.

    When argv starts with a command, only that command's subparser is built,
    since argparse runs no other; its usage line still lists every command,
    as the one built from all of them does.  Otherwise (help, no command, an
    unknown one) all are built, and the error for a missing command names
    it ``command``.
    """
    ap = argparse.ArgumentParser(
        prog="cremlat",
        description="exact lattice dynamics of plane birational transformations",
    )
    if argv and argv[0] in COMMANDS:
        names, metavar = argv[:1], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = COMMANDS, None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" and a digit as a flag, so
    # --monomial -3,2,1,-1 is passed on as --monomial=-3,2,1,-1, and so is
    # each abbreviation from --mo on (--m is also --map's)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[0] == "degseq" and len(argv[i - 1]) > 3 and "--monomial".startswith(argv[i - 1])
                and re.match(r"-\d", argv[i])):
            argv[i - 1:i + 1] = [f"--monomial={argv[i]}"]
    args = build_parser(argv).parse_args(argv)
    try:
        for flag in ("-n", "--budget", "--kmax"):  # the counts; below 0 they give nothing
            if (value := getattr(args, flag.lstrip("-"), 0)) < 0:
                raise SyntaxErrorAt(f"{flag} {value} is not a non-negative integer", 0)
        text = args.fn(args)
    except InputSyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # domain errors; RuntimeError covers resource guards, budget overruns
    # and failed certificates (spectral.CertificateError), OverflowError a
    # number too large for a float or infinite where a ratio is needed
    except (ValueError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
