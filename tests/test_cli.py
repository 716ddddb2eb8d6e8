import json

import pytest

from cremlat.cli import main

LOXODROMIC = "q(a,b,c)*q(d,e,f)*q(g,h,i)*q(j,a,d)"
LEHMER = "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"


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
                                  ("reduce", "--seed", "0", LOXODROMIC)])
def test_seed_is_not_an_option(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 2
    assert out == ""


def test_reduce_of_an_elliptic_element_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "reduce", "q(a,b,c)")
    assert rc == 1
    assert out == ""
    assert "reduction needs a loxodromic element" in err
