"""Fast smoke test of the benchmark harness at tiny sizes.

    python -m pytest -q bench/tests

It is outside the Tier-1 suite (``testpaths = ["tests"]``).  Every metric
that BENCHMARK.json names must appear in both modes and every output check
must pass.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(gen, "WORD_SIZES", ((8, 12),))
    monkeypatch.setattr(gen, "REDUCE_SIZES", ((1, 4, 12),))
    monkeypatch.setattr(gen, "SALEM_UPPERS", ((1.3, 1.45),))
    monkeypatch.setattr(gen, "FK_KMAX", 4)
    monkeypatch.setattr(gen, "BASES", gen.BASES[:1])
    monkeypatch.setattr(gen, "GENERIC_N", (3,))
    monkeypatch.setattr(gen, "CANCELLING", ((0, 3),))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_check(tiny, trace):
    spec = run.load_spec(ROOT)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    reference = check.load_reference(ROOT / "bench" / "reference.json")
    for workload in gen.WORKLOADS:
        res = run.run_workload(ROOT, spec, workload, 3, 0.1, trace, reference, lambda _: None)
        assert sorted(res["metrics"]) == sorted(wanted)
        assert res["correct"], workload
        assert res["attempted"] >= 1


DEFECT_STDERR = ("Traceback (most recent call last):\n"
                 "AssertionError: eigenvector residuals too large: 0.1, 0.1\n")


def test_known_defect_only_where_the_reference_failed():
    reference = check.load_reference(ROOT / "bench" / "reference.json")
    checker = check.Checker(reference)
    listed = {f["argv_key"] for f in reference["failures"]}
    recorded = gen.calls_for("reduce", 0)
    failing = [c for c in recorded if check.argv_key(c.argv) in listed]
    passing = [c for c in recorded if check.argv_key(c.argv) not in listed]
    assert failing and passing
    assert checker.verdict(failing[0], 1, "", DEFECT_STDERR)[0] == "known_defect"
    # an input that passed at the reference commit may not fail this way
    assert checker.verdict(passing[0], 1, "", DEFECT_STDERR)[0] == "failed"
    # an unrecorded input is excused only at a high degree (h0^20, not h0)
    unrecorded = gen.calls_for("reduce", 10 ** 6)
    assert unrecorded[0].meta["power"] == 1 and unrecorded[-1].meta["power"] == 20
    assert checker.verdict(unrecorded[0], 1, "", DEFECT_STDERR)[0] == "failed"
    assert checker.verdict(unrecorded[-1], 1, "", DEFECT_STDERR)[0] == "known_defect"
    record = {"rc": 1, "stdout": "", "stderr": DEFECT_STDERR}
    correct, failed, _ = run.judge(check.Checker(reference), passing[:1], [record],
                                   lambda _: None)
    assert (correct, failed) == (False, 1)


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    p = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "words",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
