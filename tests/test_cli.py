import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cremlat
from cremlat import intmat, orbits, salem
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


def stdin_of(raw):
    """A standard input that holds the bytes raw."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


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
    # spaces stand around a name, never inside one
    ("weyl-normalize", "q(a,b,c)", "--vector", "e(a b)"),
    ("weyl-normalize", "q(a,b,c)", "--vector", "3e0-e(a)-e(b c)"),
    # a zero denominator, and a sign without a term after it
    ("degseq", "--map", "[2/0*x : y : z]"),
    ("classify-number", "x -"),
    ("degseq", "--map", "[x - : y : z]"),
    ("degseq", "--map", "[x : y : -]"),
    # an integer polynomial, written with a fraction
    ("classify-number", "x^2 + 1/2*x"),
    # a Salem search up to no finite bound; 1e400 overflows to infinity
    ("salem-enum", "--degree-bound", "4", "--upper", "nan"),
    ("salem-enum", "--degree-bound", "4", "--upper", "inf"),
    ("salem-enum", "--degree-bound", "4", "--upper", "1e400"),
    # a count below zero
    ("degseq", "--map", "[y*z : z*x : x*y]", "-n", "-1"),
    ("degseq", "--monomial", "1,1,1,0", "-n", "-1"),
    ("reduce", "q(a,b,c)*q(d,e,f)*q(g,h,i)*q(j,a,d)", "--budget", "-1"),
    ("fk-spectrum", "--m", "3", "--kmax", "-1"),
    # 3e0 less distinct points only: this is 3e0 - 2e(a)
    ("weyl-normalize", "q(a,b,c)", "--vector", "3e0-e(a)-e(a)"),
])
def test_malformed_input_is_a_usage_error(capsys, monkeypatch, argv):
    if argv[0] == "realizable":
        monkeypatch.setattr(sys, "stdin", stdin_of(argv[-1].encode()))
        argv = argv[:-1]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == "" and err.startswith("usage error:")
    # every usage error names its place as the grammars do, "(at position N)"
    assert "(position" not in err
    if argv[0] == "salem-enum":
        assert err.endswith(" is not a finite number (at position 0)\n")
    if "-1" in argv:
        assert err.endswith(" -1 is not a non-negative integer (at position 0)\n")
    if "--vector" in argv:
        assert err.endswith("(at position 0)\n")


@pytest.mark.parametrize("source", ["file", "-"])
def test_a_config_that_is_not_utf8_names_the_byte_position(capsys, monkeypatch, tmp_path, source):
    raw = bytes.fromhex("ff fe 7b")
    if source == "file":
        (tmp_path / "config.json").write_bytes(raw)
        source = str(tmp_path / "config.json")
    else:
        monkeypatch.setattr(sys, "stdin", stdin_of(raw))
    rc, out, err = run(capsys, "realizable", "--m", "2", "--config", source)
    assert (rc, out) == (2, "")
    assert err == "usage error: cannot read --config: invalid start byte (at position 0)\n"


def test_a_config_that_is_not_json_names_the_decoder_position(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", stdin_of(b'{"points": ]'))
    rc, out, err = run(capsys, "realizable", "--m", "2", "--config", "-")
    assert (rc, out) == (2, "")
    assert err == "usage error: cannot read --config: Expecting value (at position 11)\n"


@pytest.mark.parametrize("letter", ["q(a,a,b)", "t(a,a)", "s(a a)", "s(a b)(b c)"])
def test_a_letter_with_a_repeated_point_is_a_usage_error_at_its_place(capsys, letter):
    rc, out, err = run(capsys, "weyl-eval", f"t(x,y)*{letter}")
    assert (rc, out) == (2, "")
    assert err == f"usage error: {letter[0]} needs distinct points (at position 7)\n"


def test_spaces_around_star_and_signs_parse_as_without_them(capsys):
    spaced = run(capsys, "degseq", "--map", "[y * z : z * x : x * y]", "-n", "4")
    assert spaced == run(capsys, "degseq", "--map", "[y*z : z*x : x*y]", "-n", "4")
    assert spaced[0] == 0 and json.loads(spaced[1])["degrees"] == [2, 1, 2, 1]
    # factors joined by a space multiply, as in a map
    assert run(capsys, "classify-number", "x x - 3 * x + 1") == run(
        capsys, "classify-number", "x^2 - 3*x + 1")


def test_spaces_in_a_vector_keep_its_output(capsys):
    word = "q(a,b,c)*q(a,d,e)"
    rc, out, _ = run(capsys, "weyl-normalize", word, "--vector", "3 e0 - e( a ) - e(b) - e(c)")
    assert rc == 0
    assert out == ('{"word": "q(a,d,e)", "image": "5*e0 - 3*e(a) - e(b) - e(c) - 2*e(d) - '
                   '2*e(e)", "partial_degrees": ["5"]}\n')
    assert run(capsys, "weyl-normalize", word, "--vector", "3e0-e(a)-e(b)-e(c)")[1] == out


def exit_code(*argv):
    """The exit code of one cremlat call, with its output thrown away."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


# digit runs of at most two: a long exponent allocates one coefficient per degree
@settings(max_examples=150, deadline=None)
@given(st.text("xyz0123456789/*^+- ", max_size=16).map(lambda t: re.sub(r"(\d\d)\d+", r"\1", t)))
@example("2/0")
def test_any_polynomial_text_ends_in_a_clean_exit(text):
    assert exit_code("classify-number", "--", text) in (0, 1, 2)
    assert exit_code("degseq", "--map", f"[{text} : y : z]", "-n", "2") in (0, 1, 2)


def test_realizable_reads_every_config_field(capsys, monkeypatch):
    config = {"points": [{"id": "a", "coords": [1, 0, 0]},
                         {"id": "b", "parent": "a", "on_exceptional_of": ["a"]},
                         {"id": "c", "coords": ["1/2", 0, 1]}],
              "collinear": [["a", "b", "c"]], "not_collinear": []}
    monkeypatch.setattr(sys, "stdin", stdin_of(json.dumps(config).encode()))
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
    # too large for a float where a float is needed
    ("bounds", "--lam", "1e400"),
    # a Salem number exceeds 1
    ("salem-enum", "--degree-bound", "4", "--upper", "1"),
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
# weyl-eval has no domain error, since every well-formed word realizes, nor
# has weyl-normalize, whose vector parser builds only the four shapes that
# the normal form handles; spectrum refuses only on a failed certificate,
# which test_failed_certificate_is_a_domain_error forces
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
        monkeypatch.setattr(sys, "stdin", stdin_of(argv[-1].encode()))
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


def test_fk_spectrum_refuses_a_kmax_past_its_limit_at_once(capsys):
    # the work grows about as kmax^3: a million would run for hours
    start = time.perf_counter()
    rc, out, err = run(capsys, "fk-spectrum", "--m", "3", "--kmax", "1000000")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err.startswith("error: k = 1000000 is past the limit")


def test_fk_spectrum_refuses_an_m_past_its_limit_at_once(capsys):
    # the work grows with the digits of m: a 101-digit m at --kmax 64 ran for
    # minutes
    start = time.perf_counter()
    rc, out, err = run(capsys, "fk-spectrum", "--m", str(10 ** 100), "--kmax", "64")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: m = {10 ** 100} is past the limit {orbits.M_LIMIT}")
    rc, out, _ = run(capsys, "fk-spectrum", "--m", str(orbits.M_LIMIT), "--kmax", "2")
    assert rc == 0 and json.loads(out)["m"] == orbits.M_LIMIT


def test_classify_number_refuses_a_cost_past_its_limit_at_once(capsys):
    # the time grows about as the square of degree^2 * coefficient bits:
    # x^100000 + 1 ran for minutes, and x^50 - 10^2400*x - 1 for 29 s; each
    # is refused from its terms, before its coefficient list is built
    limit = salem.COST_LIMIT
    for text, cost in ((f"x^{10 ** 5} + 1", 10 ** 11),
                       (f"x^50 - {10 ** 2400}*x - 1", 50 ** 2 * 7973)):
        start = time.perf_counter()
        rc, out, err = run(capsys, "classify-number", text)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == (f"error: cost {cost} = degree^2 * max(coefficient bits, 10) "
                       f"is past the limit {limit}\n")
    # x^1000 + 1 costs 1000^2 * 10, the limit itself
    rc, out, _ = run(capsys, "classify-number", "x^1000 + 1")
    assert rc == 0 and json.loads(out)["kind"] == "cyclotomic_product"


def test_a_monomial_matrix_may_start_with_a_negative_entry(capsys):
    # every exponent matrix with entries in -6..6 and determinant +-1 (346
    # of them start with a negative entry, which argparse would read as a
    # flag) prints the same in both spellings, and in each abbreviation of
    # the flag that --map does not share
    matrices = [m for m in itertools.product(range(-6, 7), repeat=4)
                if abs(m[0] * m[3] - m[1] * m[2]) == 1]
    assert (len(matrices), sum(m[0] < 0 for m in matrices)) == (744, 346)
    for m in matrices:
        text = ",".join(map(str, m))
        spaced = run(capsys, "degseq", "--monomial", text)
        assert spaced[0] == 0
        assert spaced == run(capsys, "degseq", f"--monomial={text}")
    flags = ["--monomial"[:k] for k in range(4, 10)]
    assert flags == ["--mo", "--mon", "--mono", "--monom", "--monomi", "--monomia"]
    for m in matrices[::37] + [(-3, 2, 1, -1)]:
        text = ",".join(map(str, m))
        expected = run(capsys, "degseq", "--monomial", text, "-n", "2")
        assert expected[0] == 0
        for flag in flags:
            assert run(capsys, "degseq", flag, text, "-n", "2") == expected
    # --m abbreviates --map too, which argparse refuses as ambiguous
    rc, _, err = run(capsys, "degseq", "--m", "-3,2,1,-1")
    assert rc == 2 and "ambiguous option: --m could match --map, --monomial" in err


def test_failed_certificate_is_a_domain_error(capsys, monkeypatch):
    # a wrong characteristic polynomial, chi + 1, fails chi(M) e0 = 0
    charpoly = intmat.charpoly
    monkeypatch.setattr(intmat, "charpoly", lambda m, outside=None: [
        c + (i == 0) for i, c in enumerate(charpoly(m, outside))])
    rc, out, err = run(capsys, "spectrum", LOXODROMIC)
    assert rc == 1
    assert out == "" and err.startswith("error: chi(M) e0 is not 0")


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
     '{"degree": 25, "class": "loxodromic", "evidence": "spectral radius 6.015301948 from a non-cyclotomic factor", "lambda": 6.015301948105591, "criteria": {"degree400_vs_3_19_degree200": true}, "cosh_axis_distance": 3.340716140007343, "vplus_dot_vminus": 0.17920529806158508, "residuals": {"v_plus": 0.0, "v_minus": 0.0}}\n'),
    (("fk-spectrum", "--m", "3", "--kmax", "8"),
     '{"m": 3, "limit": 3.732050807568877, "entries": [{"k": 2, "lambda": 3.441477976085134, "class": "salem"}, {"k": 3, "lambda": 3.6615922431108423, "class": "salem"}, {"k": 4, "lambda": 3.713848381862606, "class": "salem"}, {"k": 5, "lambda": 3.7272356225208196, "class": "salem"}, {"k": 6, "lambda": 3.730766139597561, "class": "salem"}, {"k": 7, "lambda": 3.7317070638935146, "class": "salem"}, {"k": 8, "lambda": 3.731958742448955, "class": "salem"}]}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["reduce-h0", "reduce-h0^20", "spectrum", "fk-spectrum"])
def test_golden_output(capsys, argv, expected):
    """Exact stdout, to the last bit of every float.  For reduce, the axis of
    a conjugate is carried through the conjugation, and must read as the
    conjugate's own resolvent pass would."""
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == expected


def points_config(coords):
    """A config of proper points, from {id: coordinates}."""
    return json.dumps({"points": [{"id": n, "coords": c} for n, c in coords.items()]})


THREE_POINTS = points_config({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
THREE_ON_A_LINE = points_config({"a": [1, 0, 0], "b": [0, 1, 0], "c": [1, 1, 0]})
# four satellites on a line that misses the first point: condition (6) at k = 1
FOUR_ON_A_LINE = points_config({"a": [0, 0, 1], "b": [1, 0, 0], "c": [0, 1, 0],
                                "d": [1, 1, 0], "e": [1, 2, 0]})
NEAR_POINT = json.dumps({"points": [{"id": "a", "coords": [1, 0, 0]},
                                    {"id": "b", "parent": "a", "on_exceptional_of": ["a"]},
                                    {"id": "c", "coords": ["1/2", 0, 1]}],
                         "collinear": [["a", "b", "c"]], "not_collinear": []})
BARE_POINT = json.dumps({"points": [{"id": "a", "coords": [1, 0, 0]}, {"id": "b"},
                                    {"id": "c", "coords": [0, 1, 0]}]})

# the commands that no bench call runs (the normal form, realizability, the
# monomial maps and the bound formulas), as (argv, exit code, stdout,
# stderr); realizable reads the last item of argv from stdin
NOT_BENCHED = [
    (("weyl-normalize", LOXODROMIC, "--vector", "e0"),
     0, '{"word": "q(a,b,c) * q(d,e,f) * q(g,h,i) * q(a,d,j)", "image": "13*e0 - 7*e(a) - 6*e(b) - 6*e(c) - 4*e(d) - 3*e(e) - 3*e(f) - 2*e(g) - 2*e(h) - 2*e(i) - e(j)", "partial_degrees": ["2", "4", "7", "13"]}\n', ''),
    (("weyl-normalize", LOXODROMIC, "--vector", "e(a)"),
     0, '{"word": "q(a,b,c) * q(d,e,f) * q(d,g,h) * q(i,j,a)", "image": "6*e0 - 3*e(a) - 3*e(b) - 3*e(c) - 2*e(d) - e(e) - e(f) - e(g) - e(h) - e(i) - e(j)", "partial_degrees": ["1", "2", "3", "6"]}\n', ''),
    (("weyl-normalize", LOXODROMIC, "--vector", "e0-e(a)"),
     0, '{"word": "q(a,b,c) * q(d,e,f) * q(a,g,h) * s(a i)", "image": "7*e0 - 4*e(a) - 3*e(b) - 3*e(c) - 2*e(d) - 2*e(e) - 2*e(f) - e(g) - e(h) - e(i)", "partial_degrees": ["2", "4", "7"]}\n', ''),
    (("weyl-normalize", LOXODROMIC, "--vector", "3e0-e(a)-e(b)-e(c)"),
     0, '{"word": "q(a,b,c) * q(d,e,f) * q(g,h,i) * q(a,d,j)", "image": "31*e0 - 16*e(a) - 14*e(b) - 14*e(c) - 10*e(d) - 8*e(e) - 8*e(f) - 5*e(g) - 5*e(h) - 5*e(i) - 2*e(j)", "partial_degrees": ["5", "10", "18", "31"]}\n', ''),
    (("weyl-normalize", "t(a,b)*q(a,c,d)", "--vector", "e(b)"),
     0, '{"word": "s(a b)", "image": "e(a)", "partial_degrees": []}\n', ''),
    (("weyl-normalize", "t(p6,p9)*q(p4,p2,p5)", "--vector", "3e0-e(p9)-e(p5)-e(p6)-e(p8)-e(p4)-e(p7)-e(p3)"),
     0, '{"word": "q(p4,p5,p6) * s(p6 p2)", "image": "4*e0 - e(p6) - e(p9) - 2*e(p4) - e(p2) - 2*e(p5) - e(p8) - e(p7) - e(p3)", "partial_degrees": ["4"]}\n', ''),
    (("weyl-normalize", "q(p7,p8,p10)*q(p8,p9,p4)*q(p2,p7,p3)", "--vector", "3e0-e(p8)-e(p7)-e(p5)-e(p6)-e(p10)-e(p3)-e(p2)-e(p9)"),
     0, '{"word": "q(p8,p9,p7) * s(p7 p4)", "image": "4*e0 - e(p7) - 2*e(p8) - e(p10) - 2*e(p9) - e(p4) - e(p2) - e(p3) - e(p5) - e(p6)", "partial_degrees": ["4"]}\n', ''),
    (("realizable", "--m", "3", "--config", "-", five_points()),
     0, '{"status": "pass", "condition": null, "witness": null}\n', ''),
    (("realizable", "--m", "2", "--config", "-", five_points()),
     1, '', 'error: a degree-2 configuration needs 3 points\n'),
    (("realizable", "--m", "2", "--config", "-", THREE_POINTS),
     0, '{"status": "pass", "condition": null, "witness": null}\n', ''),
    (("realizable", "--m", "2", "--config", "-", THREE_ON_A_LINE),
     0, '{"status": "fail", "condition": 3, "witness": "line through a, b, c"}\n', ''),
    (("realizable", "--m", "2", "--config", "-", NEAR_POINT),
     0, '{"status": "fail", "condition": 3, "witness": "line through a, b, c"}\n', ''),
    (("realizable", "--m", "3", "--config", "-", FOUR_ON_A_LINE),
     0, '{"status": "fail", "condition": 6, "witness": "a degree-1 curve with multiplicity 0 at a passes through 4 satellites: b, c, d, e"}\n', ''),
    (("realizable", "--m", "2", "--config", "-", BARE_POINT),
     0, '{"status": "undecidable", "condition": 2, "witness": "b carries no annotation"}\n', ''),
    (("degseq", "--monomial", "1,1,1,0"),
     0, '{"degrees": [2, 3, 5, 8, 13, 21, 34, 55], "truncated": false, "lambda": 1.618033988749895}\n', ''),
    (("degseq", "--monomial", "2,1,1,1", "-n", "6"),
     0, '{"degrees": [3, 8, 21, 55, 144, 377], "truncated": false, "lambda": 2.618033988749895}\n', ''),
    (("degseq", "--monomial", "0,-1,1,0", "-n", "5"),
     0, '{"degrees": [2, 2, 2, 1, 2], "truncated": false, "lambda": 1.0}\n', ''),
    (("degseq", "--monomial=-3,2,1,-1", "-n", "5"),
     0, '{"degrees": [4, 15, 56, 209, 780], "truncated": false, "lambda": 3.732050807568877}\n', ''),
    (("bounds", "--lam", "2"),
     0, '{"lam": 2.0, "mcdeg_bound": "150400", "cosh_bound": 2.3529851303503287e+111, "log_cosh_bound": 256.4426301126212, "degree_threshold": "192", "decrease_quantum": 0.023810763598327678, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--lam", "3/2"),
     0, '{"lam": 1.5, "mcdeg_bound": "285525/8", "cosh_bound": 1.852486504537659e+68, "log_cosh_bound": 157.19231511675676, "degree_threshold": "81", "decrease_quantum": 0.028572916317993215, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--lam", "1.5"),
     0, '{"lam": 1.5, "mcdeg_bound": 35690.625, "cosh_bound": 1.852486504537659e+68, "log_cosh_bound": 157.19231511675676, "degree_threshold": 81.0, "decrease_quantum": 0.028572916317993215, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--lam", "1e6"),
     0, '{"lam": 1000000.0, "mcdeg_bound": "4700000000000000000000000000000000", "cosh_bound": "inf", "log_cosh_bound": 4783.657995317114, "degree_threshold": "24000000000000000000", "decrease_quantum": 7.143221936276367e-08, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--lam", "1234.5678"),
     0, '{"lam": 1234.5678, "mcdeg_bound": 1.3479462830143357e+19, "cosh_bound": "inf", "log_cosh_bound": 2473.181151582176, "degree_threshold": 45160223046.39741, "decrease_quantum": 5.781333148612568e-05, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--lam", "1000000"),
     0, '{"lam": 1000000.0, "mcdeg_bound": "4700000000000000000000000000000000", "cosh_bound": "inf", "log_cosh_bound": 4783.657995317114, "degree_threshold": "24000000000000000000", "decrease_quantum": 7.143221936276367e-08, "loxodromy_constant": "1162261467"}\n', ''),
    (("bounds", "--degrees", "2", "3"),
     0, '{"loxodromy_constant": "1162261467", "conjugator_bound": "5310018253203358388078621456810599514112"}\n', ''),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", NOT_BENCHED,
                         ids=[f"{argv[0]}-{i}" for i, (argv, *_) in enumerate(NOT_BENCHED)])
def test_golden_output_of_the_commands_no_bench_call_runs(capsys, monkeypatch, argv, code,
                                                         stdout, stderr):
    if argv[0] == "realizable":
        monkeypatch.setattr(sys, "stdin", stdin_of(argv[-1].encode()))
        argv = argv[:-1]
    assert run(capsys, *argv) == (code, stdout, stderr)


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
    print(json.dumps([rc, ran, sorted({"dataclasses", "inspect"} & set(sys.modules))]),
          file=sys.stderr)
""")

# the modules whose code runs (a lazy module that was never used is still
# of the pending type), besides cremlat and cremlat.cli; intmat runs only
# where a matrix or an interpolation is computed.  The lattice commands run
# the root kernel (roots) but not the Salem layer (salem)
MODULES_RUN = {
    "bounds": (("bounds", "--lam", "2"), {"bounds"}),
    "classify-number": (("classify-number", LEHMER), {"salem", "roots"}),
    "salem-enum": (("salem-enum", "--degree-bound", "6", "--upper", "1.5"), {"salem", "roots"}),
    "degseq-cancelling": (("degseq", "--map", CANCELLING_MAP, "-n", "3"), {"birmap", "intmat"}),
    "degseq-generic": (("degseq", "--map", GENERIC_MAP, "-n", "3"), {"birmap"}),
    "degseq-monomial": (("degseq", "--monomial", "1,1,1,0"), {"birmap", "roots"}),
    "fk-spectrum": (("fk-spectrum", "--m", "3", "--kmax", "4"), {"orbits", "salem", "roots"}),
    "weyl-eval": (("weyl-eval", LOXODROMIC), {"weyl", "lattice", "intmat"}),
    "weyl-normalize": (("weyl-normalize", LOXODROMIC, "--vector", "e0-e(a)"),
                       {"normalform", "weyl", "lattice"}),
    "spectrum": (("spectrum", LOXODROMIC),
                 {"spectral", "bounds", "roots", "weyl", "lattice", "intmat"}),
    "reduce": (("reduce", LOXODROMIC),
               {"reduction", "bounds", "spectral", "roots", "weyl", "lattice", "intmat"}),
    "realizable": (("realizable", "--m", "3", "--config", "-", five_points()),
                   {"realizable", "lattice", "intmat"}),
}


@pytest.mark.parametrize("argv,modules", MODULES_RUN.values(), ids=MODULES_RUN.keys())
def test_each_subcommand_runs_only_the_modules_it_needs(argv, modules):
    stdin = argv[-1] if argv[0] == "realizable" else None
    proc = child("-c", RUN_AND_LIST_MODULES, *(argv[:-1] if stdin else argv), stdin=stdin)
    rc, ran, heavy = json.loads(proc.stderr.splitlines()[-1])
    assert rc == 0
    assert set(ran) == modules | {"cli"}
    # no command loads dataclasses or inspect, which it imports: together a
    # large share of a short call's start-up; records are NamedTuples
    assert heavy == []
