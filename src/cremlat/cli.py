"""Batch command line front-end; every subcommand prints JSON to stdout.

Exit codes: 0 on success, 1 on a domain error (a well-formed request whose
mathematics refuses: non-loxodromic input to reduce, resource guards, ...),
2 on a usage error (unknown flags, malformed words/polynomials/triples; the
message carries the offending position where the parsers provide one).
Every parser raises :class:`cremlat.InputSyntaxError` or a subclass, so the
exit code follows the type of the exception, never its message.  Each
``cmd_*`` function returns its output text, and :func:`main` prints it.

A subcommand loads only the layer modules it runs: ``bounds`` runs no
lattice code, ``classify-number`` only :mod:`cremlat.salem`.  Importing this
module binds every layer module through :class:`importlib.util.LazyLoader`,
which puts it in ``sys.modules`` at once and runs it on its first attribute
access.  Function-local imports would load as little, but leave the layers
out of ``sys.modules`` until a command runs, where outside-in tracers (such
as ``bench/tracer.py``) look for them right after ``import cremlat.cli``.
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
birmap, bounds, intmat, lattice, orbits, reduction, salem, spectral, weyl = map(
    _lazy, ("birmap", "bounds", "intmat", "lattice", "orbits", "reduction", "salem",
            "spectral", "weyl"))


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
        "stripped": salem.format_poly(cls.stripped) if cls.stripped else None,
        "notes": list(cls.notes),
    })


def cmd_salem_enum(args) -> str:
    if not math.isfinite(args.upper):  # nan, inf, or a decimal past the float range
        raise SyntaxErrorAt(f"--upper {args.upper} is not a finite number", 0)
    found = salem.enumerate_salem(args.degree_bound, args.upper)
    return json.dumps([
        {"polynomial": salem.format_poly(p), "root": r} for p, r in found
    ])


def cmd_weyl_eval(args) -> str:
    w, _ = weyl.parse_word(args.word)
    h = weyl.realize(w)
    return json.dumps({
        "degree": weyl.degree(h),
        "image_e0": lattice.render(weyl.apply(h, lattice.e0())),
        "support": [repr(p) for p in h.support],
        "word": weyl.print_word(w),
    })


def cmd_weyl_normalize(args) -> str:
    w, names = weyl.parse_word(args.word)
    v = _parse_vector(args.vector, names)
    nw = weyl.normalize_increasing(w, v)
    return json.dumps({
        "word": weyl.print_word(nw),
        "image": lattice.render(nw.apply(v)),
        "partial_degrees": [str(d) for d in weyl.increasing_degrees(nw, v)],
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
    try:
        if args.config == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        data = json.loads(raw.decode("utf-8"))  # JSON text is UTF-8 (RFC 8259)
    except UnicodeDecodeError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc.reason}", exc.start) from exc
    except json.JSONDecodeError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc.msg}", exc.pos) from exc
    except OSError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc}", 0) from exc
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise SyntaxErrorAt("--config needs a JSON object with a list of points", 0)
    names = {}

    def named(name):
        if isinstance(name, str) and name in names:
            return names[name]
        raise SyntaxErrorAt(f"--config names an unknown point {name!r}", 0)

    def listed(value, key):
        if not isinstance(value, list):
            raise SyntaxErrorAt(f"--config: {key} must be a list", 0)
        return value

    points = []
    for spec in data["points"]:
        if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
            raise SyntaxErrorAt("--config has a point without a string id", 0)
        name = spec["id"]
        if "coords" in spec:
            try:
                coords = [Fraction(c) for c in listed(spec["coords"], "coords")]
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                coords = []
            if len(coords) != 3:
                raise SyntaxErrorAt(f"--config: coords of {name!r} are not three numbers", 0)
            pt = lattice.proper_point(*coords, label=name)
        elif "parent" in spec:
            pt = lattice.infinitely_near(named(spec["parent"]), label=name)
        else:
            pt = lattice.point(label=name)
        names[name] = pt
        points.append(pt)
    k_max = data.get("k_max", 6)
    if type(k_max) is not int or k_max < 0:  # bool is a subclass of int
        raise SyntaxErrorAt(f"--config: k_max {k_max!r} is not a non-negative integer", 0)
    config = reduction.PointConfiguration(points, k_max=k_max)
    for fact, key in ((True, "collinear"), (False, "not_collinear")):
        for triple in listed(data.get(key, []), key):
            config.collinear_facts[frozenset(named(n).id for n in listed(triple, key))] = fact
    for spec in data["points"]:
        for host in listed(spec.get("on_exceptional_of", []), "on_exceptional_of"):
            config.exceptional_members.setdefault(named(host), set()).add(names[spec["id"]])
    report = reduction.realizable_jonquieres(config, args.m)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cremlat",
        description="exact lattice dynamics of plane birational transformations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("classify-number", cmd_classify_number, help="classify a monic integer polynomial")
    p.add_argument("polynomial")

    p = add("salem-enum", cmd_salem_enum, help="exhaustive bounded Salem search")
    p.add_argument("--degree-bound", type=int, required=True)
    p.add_argument("--upper", type=float, required=True)

    p = add("weyl-eval", cmd_weyl_eval, help="realize a word and print its degree data")
    p.add_argument("word")

    p = add("weyl-normalize", cmd_weyl_normalize, help="rewrite a word with increasing degrees")
    p.add_argument("word")
    p.add_argument("--vector", default="e0")

    p = add("spectrum", cmd_spectrum, help="spectral report of a word")
    p.add_argument("word")

    p = add("reduce", cmd_reduce, help="degree reduction loop, one JSON line per step")
    p.add_argument("word")
    p.add_argument("--budget", type=int, default=200)

    p = add("realizable", cmd_realizable, help="base-point realizability of a configuration")
    p.add_argument("--config", required=True, help="JSON file, or - for stdin")
    p.add_argument("--m", type=int, required=True)

    p = add("fk-spectrum", cmd_fk_spectrum, help="truncated-orbit spectral radii")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = add("degseq", cmd_degseq, help="degree sequence of a coordinate triple")
    p.add_argument("--map", help="triple like [y*z : z*x : x*y]")
    p.add_argument("--monomial", help="a,b,c,d exponent matrix entries")
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--prime-field", action="store_true")

    p = add("bounds", cmd_bounds, help="explicit bound formulas")
    p.add_argument("--lam", help="dynamical degree (rational or decimal)")
    p.add_argument("--degrees", type=int, nargs=2, help="two degrees for the conjugator bound")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
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
