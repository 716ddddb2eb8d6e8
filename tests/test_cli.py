import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import cremlat
from cremlat import spectral
from cremlat.cli import main

LOXODROMIC = "q(a,b,c)*q(d,e,f)*q(g,h,i)*q(j,a,d)"
LEHMER = "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"
# A o sigma with A fixing the coordinate point [0:1:0]
CANCELLING_MAP = "[y*z : z*x + x*y : x*y + y*z]"
GENERIC_MAP = "[-3*y*z - z*x + 3*x*y : 3*y*z + 3*z*x - 2*x*y : y*z - 2*z*x + 3*x*y]"


def five_points(**fields):
    """A config of five points in general position, on which realizable --m 3
    reaches its curve conditions, with extra top-level fields."""
    coords = ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3])
    return json.dumps({"points": [{"id": n, "coords": c} for n, c in zip("abcde", coords)],
                       **fields})


def run(capsys, *argv):
    """Exit code, stdout and stderr of one cremlat call."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_spectrum_prints_json(capsys):
    rc, out, _ = run(capsys, "spectrum", LOXODROMIC)
    assert rc == 0
    report = json.loads(out)
    assert report["class"] == "loxodromic" and report["degree"] == 13


def test_reduce_prints_one_json_line_per_step_and_a_summary(capsys):
    rc, out, _ = run(capsys, "reduce", LOXODROMIC)
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["terminal"] == "reached_degree_threshold"
    assert len(lines) == lines[-1]["steps"] + 1


def test_classify_number_prints_json(capsys):
    rc, out, _ = run(capsys, "classify-number", LEHMER)
    assert rc == 0
    assert json.loads(out)["kind"] == "salem"


def test_malformed_word_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "spectrum", "q(a,b")
    assert rc == 2
    assert out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("argv", [("spectrum", "--seed", "1", LOXODROMIC),
                                  ("reduce", "--seed", "0", LOXODROMIC),
                                  # no command takes --tol, whatever its value: every
                                  # root is printed as the float nearest to it
                                  ("weyl-eval", "--tol", "1e-3", LOXODROMIC),
                                  ("degseq", "--tol", "1e-3", "--map", "[y*z : z*x : x*y]"),
                                  ("bounds", "--tol", "1e-3", "--lam", "2"),
                                  ("classify-number", "x^2-x-1", "--tol", "0"),
                                  ("spectrum", LOXODROMIC, "--tol", "-1"),
                                  ("reduce", LOXODROMIC, "--tol", "nan"),
                                  ("fk-spectrum", "--m", "3", "--kmax", "4", "--tol", "inf"),
                                  ("classify-number", "x^2-x-1", "--tol", "1e-400"),
                                  ("classify-number", "x^2-x-1", "--tol", "1e-9"),
                                  ("spectrum", LOXODROMIC, "--tol", "1e-9"),
                                  ("reduce", LOXODROMIC, "--tol", "1e-9"),
                                  ("fk-spectrum", "--m", "3", "--kmax", "4", "--tol", "1e-9")])
def test_seed_is_not_an_option(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 2
    assert out == ""


def test_reduce_of_an_elliptic_element_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "reduce", "q(a,b,c)")
    assert rc == 1
    assert out == ""
    assert "reduction needs a loxodromic element" in err


@pytest.mark.parametrize("argv", [
    ("degseq", "--map", "x:y:z"),
    ("degseq", "--map", "[x : y]"),
    ("degseq", "--map", "[x : y : 2q]"),
    ("degseq", "--map", "[x : y : z w]"),
    ("degseq",),
    ("degseq", "--monomial", "1,2,a,4"),
    ("classify-number", "x^2 +* 1"),
    ("classify-number", ""),
    ("bounds", "--lam", "abc"),
    ("bounds", "--lam", "1/0"),
    ("weyl-normalize", "q(a,b,c)", "--vector", "xx"),
    ("classify-number", "x^2 1"),
    # realizable reads the last item as its --config from stdin
    ("realizable", "--m", "2", "--config", "-", "[1, 2]"),
    ("realizable", "--m", "2", "--config", "-", '{"k_max": 3}'),
    ("realizable", "--m", "2", "--config", "-", '{"points": [{"coords": [1, 0, 0]}]}'),
    ("realizable", "--m", "2", "--config", "-", '{"points": [{"id": "a", "parent": "zz"}]}'),
    ("realizable", "--m", "2", "--config", "-",
     '{"points": [{"id": "a"}, {"id": "b"}, {"id": "c"}], "collinear": [["a", "b", "d"]]}'),
    ("realizable", "--m", "2", "--config", "-",
     '{"points": [{"id": "a"}, {"id": "b"}, {"id": "c"}], "not_collinear": [["a", "b", 3]]}'),
    ("realizable", "--m", "2", "--config", "-",
     '{"points": [{"id": "a"}, {"id": "b", "on_exceptional_of": ["zz"]}]}'),
    ("realizable", "--m", "2", "--config", "-", '{"points": [{"id": "a", "coords": [1, 2]}]}'),
    ("realizable", "--m", "2", "--config", "-", '{"points": [{"id": "a", "coords": [1, 2, "x"]}]}'),
    # the whole text is parsed before any coefficient is read modulo the prime
    ("degseq", "--map", "[1/4611686018427387847*x*y + y*z : z*x : x*y 2]", "--prime-field"),
    ("realizable", "--m", "3", "--config", "-", five_points(k_max="2")),
    ("realizable", "--m", "3", "--config", "-", five_points(k_max=2.5)),
    ("realizable", "--m", "3", "--config", "-", five_points(k_max=True)),
    ("realizable", "--m", "3", "--config", "-", five_points(k_max=-1)),
    # a point name follows the word grammar's rule, [A-Za-z_][A-Za-z0-9_]*
    ("weyl-normalize", "q(a,b,c)", "--vector", "e(1x)"),
    ("weyl-normalize", "q(a,b,c)", "--vector", "e(é)"),
])
def test_malformed_input_is_a_usage_error(capsys, monkeypatch, argv):
    if argv[0] == "realizable":
        monkeypatch.setattr(sys, "stdin", io.StringIO(argv[-1]))
        argv = argv[:-1]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == "" and err.startswith("usage error:")


def test_realizable_reads_every_config_field(capsys, monkeypatch):
    config = {"points": [{"id": "a", "coords": [1, 0, 0]},
                         {"id": "b", "parent": "a", "on_exceptional_of": ["a"]},
                         {"id": "c", "coords": ["1/2", 0, 1]}],
              "collinear": [["a", "b", "c"]], "not_collinear": []}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    rc, out, _ = run(capsys, "realizable", "--m", "2", "--config", "-")
    assert rc == 0
    assert json.loads(out) == {"status": "fail", "condition": 3, "witness": "line through a, b, c"}


@pytest.mark.parametrize("argv", [
    ("degseq", "--map", "[x : y : z^2]"),
    ("degseq", "--monomial", "1,1,1,1"),
    ("classify-number", "2*x^2 + 1"),
    ("bounds", "--lam", "1"),
    # the denominator is the field's prime, so the coefficient does not exist
    ("degseq", "--map", "[1/4611686018427387847*x*y + y*z : z*x : x*y]", "-n", "3",
     "--prime-field"),
    # too large for a float, or infinite where an exact ratio is needed
    ("bounds", "--lam", "1e400"),
    ("salem-enum", "--degree-bound", "4", "--upper", "inf"),
    # a decimal is read as a float, which overflows to infinity
    ("bounds", "--lam", "1.0e400"),
    # the Jacobian determinant vanishes identically: a constant map, and two
    # maps whose components are algebraically dependent
    ("degseq", "--map", "[x : x : x]"),
    ("degseq", "--map", "[x^2 : x*y : y^2]"),
    ("degseq", "--map", "[x*y : x*y : z^2]"),
    ("degseq", "--map", "[x^2 : x*y : y^2]", "--prime-field"),
    # the truncated orbits start at trace parameter 2
    ("fk-spectrum", "--m", "1", "--kmax", "4"),
])
def test_well_formed_input_the_mathematics_refuses_is_a_domain_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == "" and err.startswith("error:")


# for every subcommand an input that exits 0 (JSON on stdout), 1 (a domain
# error) and 2 (a usage error); realizable reads the last item from stdin.
# weyl-eval has no domain error, since every well-formed word realizes, and
# spectrum refuses only on a failed certificate, which
# test_failed_certificate_is_a_domain_error forces
EXIT_CODES = [
    (("classify-number", LEHMER), 0),
    (("classify-number", "2*x^2 + 1"), 1),
    (("classify-number", "x^2 +* 1"), 2),
    (("salem-enum", "--degree-bound", "6", "--upper", "1.5"), 0),
    (("salem-enum", "--degree-bound", "5", "--upper", "1.5"), 1),
    (("salem-enum", "--degree-bound", "six", "--upper", "1.5"), 2),
    (("weyl-eval", LOXODROMIC), 0),
    (("weyl-eval", "q(a,b"), 2),
    (("weyl-normalize", LOXODROMIC, "--vector", "e0-e(a)"), 0),
    (("weyl-normalize", LOXODROMIC, "--vector", "3e0-e(a)-e(a)"), 1),
    (("weyl-normalize", LOXODROMIC, "--vector", "xx"), 2),
    (("spectrum", LOXODROMIC), 0),
    (("spectrum", "q(a,a,b)"), 2),
    (("reduce", LOXODROMIC), 0),
    (("reduce", "q(a,b,c)"), 1),
    (("reduce", LOXODROMIC, "--budget", "many"), 2),
    (("realizable", "--m", "3", "--config", "-", five_points()), 0),
    (("realizable", "--m", "2", "--config", "-", five_points()), 1),
    (("realizable", "--m", "2", "--config", "-", "[1, 2]"), 2),
    (("fk-spectrum", "--m", "3", "--kmax", "4"), 0),
    (("fk-spectrum", "--m", "1", "--kmax", "4"), 1),
    (("fk-spectrum", "--m", "3"), 2),
    (("degseq", "--map", CANCELLING_MAP, "-n", "3"), 0),
    (("degseq", "--map", "[x : x : x]"), 1),
    (("degseq", "--map", "[x : y]"), 2),
    (("bounds", "--degrees", "2", "3"), 0),
    (("bounds", "--lam", "1"), 1),
    (("bounds", "--lam", "abc"), 2),
]


@pytest.mark.parametrize("argv,code", EXIT_CODES,
                         ids=[f"{argv[0]}-{code}" for argv, code in EXIT_CODES])
def test_exit_code_of_every_subcommand(capsys, monkeypatch, argv, code):
    if argv[0] == "realizable":
        monkeypatch.setattr(sys, "stdin", io.StringIO(argv[-1]))
        argv = argv[:-1]
    rc, out, err = run(capsys, *argv)
    assert rc == code, err
    if code == 0:
        assert out and err == ""
        for line in out.splitlines():
            json.loads(line)
    else:
        assert out == ""
        assert err.startswith("error:" if code == 1 else "usage")


def test_failed_certificate_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(spectral, "_residual", lambda m, c, lam: 1.0)
    rc, out, err = run(capsys, "spectrum", LOXODROMIC)
    assert rc == 1
    assert out == "" and err.startswith("error: eigenvector residuals too large")


def test_reduce_beyond_lambda_ten_to_the_six(capsys):
    # the 20th power of the standard sample has lambda ~ 3.1e7
    rc, out, _ = run(capsys, "reduce", "*".join([LOXODROMIC] * 20))
    assert rc == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["terminal"] == "reached_degree_threshold"
    assert 3.0e7 < summary["lambda"] < 3.2e7


def test_spectrum_and_reduce_print_the_same_lambda(capsys):
    rc, out, _ = run(capsys, "spectrum", LOXODROMIC)
    assert rc == 0
    lam = json.loads(out)["lambda"]
    rc, out, _ = run(capsys, "reduce", LOXODROMIC)
    assert rc == 0
    assert json.loads(out.splitlines()[-1])["lambda"] == lam


# conjugators of h0 = LOXODROMIC (every letter is an involution); the first
# makes reduce take three steps, the second wraps h0^20 (lambda ~ 3.1e7),
# whose conjugate lies below 24 lambda^3, so reduce reads one axis
CONJUGATOR = "q(i,a,k)*q(m,f,i)*q(f,g,l)*q(h,d,k)*q(c,g,i)*q(m,b,l)"
CONJUGATOR_20 = "t(a,k)*q(b,k,l)*s(c m)(d n)"


def conjugated(g, core):
    return "*".join([g, core] + g.split("*")[::-1])


GOLDEN = [
    (("reduce", conjugated(CONJUGATOR, LOXODROMIC)),
     '{"root": "i", "omega": ["k", "f"], "degree_before": 2040, "degree_after": 839, "cosh_before": 59.08008611631966, "cosh_after": 37.89847106393059, "achieved_decrease": 21.18161505238907, "guaranteed_decrease": 21.18000947158772}\n'
     '{"root": "a", "omega": ["m", "g"], "degree_before": 839, "degree_after": 413, "cosh_before": 37.89847106393059, "cosh_after": 26.869804508464608, "achieved_decrease": 11.028666555465986, "guaranteed_decrease": 11.027359702460933}\n'
     '{"root": "l", "omega": ["i", "d"], "degree_before": 413, "degree_after": 161, "cosh_before": 26.869804508464608, "cosh_after": 17.219677051632253, "achieved_decrease": 9.650127456832355, "guaranteed_decrease": 9.64852715472041}\n'
     '{"terminal": "reached_degree_threshold", "lambda": 2.3692054070924664, "degree_threshold": 319.168033005315, "final_degree": 161, "steps": 3, "step_bound": 2786.596137115247}\n'),
    (("reduce", conjugated(CONJUGATOR_20, "*".join([LOXODROMIC] * 20))),
     '{"terminal": "reached_degree_threshold", "lambda": 31049477.957554683, "degree_threshold": 7.184129458345431e+23, "final_degree": 1076287745, "steps": 0, "step_bound": 3619193431.528924}\n'),
    (("spectrum", "s(a k)(b l)*q(a,b,c)*t(c,m)*q(d,e,f)*q(g,h,i)*q(j,a,d)*q(k,l,m)"),
     '{"degree": 25, "class": "loxodromic", "evidence": "spectral radius 6.015301948 from a non-cyclotomic factor", "lambda": 6.015301948105591, "criteria": {"degree400_vs_3_19_degree200": true}, "cosh_axis_distance": 3.340716140007343, "vplus_dot_vminus": 0.17920529806158508, "residuals": {"v_plus": 3.391412079263914e-16, "v_minus": 3.391412079263914e-16}}\n'),
    (("fk-spectrum", "--m", "3", "--kmax", "8"),
     '{"m": 3, "limit": 3.732050807568877, "entries": [{"k": 2, "lambda": 3.441477976085134, "class": "salem"}, {"k": 3, "lambda": 3.6615922431108423, "class": "salem"}, {"k": 4, "lambda": 3.713848381862606, "class": "salem"}, {"k": 5, "lambda": 3.7272356225208196, "class": "salem"}, {"k": 6, "lambda": 3.730766139597561, "class": "salem"}, {"k": 7, "lambda": 3.7317070638935146, "class": "salem"}, {"k": 8, "lambda": 3.731958742448955, "class": "salem"}]}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["reduce-h0", "reduce-h0^20", "spectrum", "fk-spectrum"])
def test_golden_output(capsys, argv, expected):
    """Exact stdout, to the last bit of every float.  For reduce, the axis of
    a conjugate is carried through the conjugation, and must read as if
    squared."""
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("mode", [(), ("--prime-field",)])
def test_sympy_is_never_imported(mode):
    """No command loads sympy, not even a triple whose iterates cancel a
    polynomial common factor; that triple still cancels exactly."""
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        from cremlat.cli import main

        def call(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0, argv
            return out.getvalue()

        assert "sympy" not in sys.modules
        call("spectrum", {LOXODROMIC!r})
        call("reduce", {LOXODROMIC!r})
        call("salem-enum", "--degree-bound", "6", "--upper", "1.5")
        call("degseq", "--map", {GENERIC_MAP!r}, "-n", "4", *{mode!r})
        out = call("degseq", "--map", {CANCELLING_MAP!r}, "-n", "3", *{mode!r})
        assert "sympy" not in sys.modules
        print(out)
    """)
    # the child imports the same cremlat as this test
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cremlat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # sigma contracts the line y = 0 onto [0:1:0], which A fixes and sigma
    # blows up, so the second iterate has degree 3, not 4
    assert json.loads(proc.stdout) == {"degrees": [2, 3, 4], "truncated": False}


def child(*args, stdin=None):
    """A fresh Python process, run with the cremlat that this test imports."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cremlat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [("spectrum", "q(a,b"),
                                  ("degseq", "--map", "[x : y]"),
                                  ("classify-number", "x^2 +* 1")],
                         ids=["word", "triple", "polynomial"])
def test_syntax_error_exits_2_in_a_fresh_interpreter(argv):
    """In a fresh interpreter the parser modules are not loaded when main
    starts, so the syntax error reaches main through a lazy module."""
    proc = child("-m", "cremlat.cli", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error:")


RUN_AND_LIST_MODULES = textwrap.dedent("""
    import json, sys, types
    from cremlat.cli import main

    rc = main(sys.argv[1:])
    ran = sorted(name[len("cremlat."):] for name, module in sys.modules.items()
                 if name.startswith("cremlat.") and type(module) is types.ModuleType)
    print(json.dumps([rc, ran, "dataclasses" in sys.modules]), file=sys.stderr)
""")

# the modules whose code runs (a lazy module that was never used is still
# of the pending type), besides cremlat and cremlat.cli; intmat runs only
# where a matrix or an interpolation is computed
MODULES_RUN = {
    "bounds": (("bounds", "--lam", "2"), {"bounds"}),
    "classify-number": (("classify-number", LEHMER), {"salem"}),
    "salem-enum": (("salem-enum", "--degree-bound", "6", "--upper", "1.5"), {"salem"}),
    "degseq-cancelling": (("degseq", "--map", CANCELLING_MAP, "-n", "3"), {"birmap", "intmat"}),
    "degseq-generic": (("degseq", "--map", GENERIC_MAP, "-n", "3"), {"birmap"}),
    "degseq-monomial": (("degseq", "--monomial", "1,1,1,0"), {"birmap", "salem"}),
    "fk-spectrum": (("fk-spectrum", "--m", "3", "--kmax", "4"), {"orbits", "salem"}),
    "weyl-eval": (("weyl-eval", LOXODROMIC), {"weyl", "lattice", "intmat"}),
    "weyl-normalize": (("weyl-normalize", LOXODROMIC, "--vector", "e0-e(a)"),
                       {"weyl", "lattice"}),
    "spectrum": (("spectrum", LOXODROMIC),
                 {"spectral", "bounds", "salem", "weyl", "lattice", "intmat"}),
    "reduce": (("reduce", LOXODROMIC),
               {"reduction", "bounds", "spectral", "salem", "weyl", "lattice", "intmat"}),
    "realizable": (("realizable", "--m", "3", "--config", "-", five_points()),
                   {"reduction", "bounds", "spectral", "salem", "weyl", "lattice", "intmat"}),
}
# dataclasses imports inspect, a large share of a short call's start-up
NO_DATACLASSES = {"bounds", "classify-number", "salem-enum", "degseq", "fk-spectrum"}


@pytest.mark.parametrize("argv,modules", MODULES_RUN.values(), ids=MODULES_RUN.keys())
def test_each_subcommand_runs_only_the_modules_it_needs(argv, modules):
    stdin = argv[-1] if argv[0] == "realizable" else None
    proc = child("-c", RUN_AND_LIST_MODULES, *(argv[:-1] if stdin else argv), stdin=stdin)
    rc, ran, dataclasses = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0
    assert set(ran) == modules | {"cli"}
    if argv[0] in NO_DATACLASSES:
        assert not dataclasses
