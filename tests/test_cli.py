import copy
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from itertools import product

import pytest

import brw.algebra
import brw.cli
import brw.corpus
import brw.gutkin
import brw.localfield
from brw.algebra import Algebra, Subalgebra
from brw.cli import main
from brw.corpus import DEFAULT_CORPUS, corpus_algebra, corpus_spec
from brw.errors import SpecError, VerificationFailure
from brw.exact import MILLER_RABIN_BOUND
from brw.localfield import InductionDatum, SmoothCharLocal, is_admissible_shape
from helpers import matrix_algebra_2x2, polynomial_quotient, rebased, spec_certificate_oracle


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def load(out, name):
    with open(os.path.join(str(out), name), "r", encoding="utf-8") as f:
        return json.load(f)


def test_info_pattern_example(tmp_path):
    code, out = run(tmp_path, "info", "b2_f3")
    assert code == 0
    rep = load(out, "info_b2_f3.json")
    assert rep["dim"] == 3 and rep["group_order"] == 12
    assert rep["split_basic"] and rep["radical_dims"] == [1, 0]


def test_info_b3f2(tmp_path):
    code, out = run(tmp_path, "info", "b3_f2")
    rep = load(out, "info_b3_f2.json")
    assert code == 0 and rep["dim"] == 6 and rep["group_order"] == 8


def test_info_malformed_pairs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 3, "pattern": {"n": 2, "closed_pairs": [[2, 1]]}}')
    code = main(["info", str(bad)])
    assert code == 2


def test_info_missing_file():
    assert main(["info", "/no/such/spec.json"]) == 2


def test_chartable(tmp_path):
    code, out = run(tmp_path, "chartable", "b2_f3")
    assert code == 0
    text = open(os.path.join(str(out), "chartable_b2_f3.csv")).read()
    lines = text.strip().split("\n")
    assert "conductor=6" in lines[0]
    assert len(lines) == 8  # comment + header + 6 rows
    degrees = sorted(int(l.split(",")[0]) for l in lines[2:])
    assert degrees == [1, 1, 1, 1, 2, 2]


def test_chartable_cap_exceeded(tmp_path):
    code = main(["chartable", "b3_f5"])
    assert code == 3


def test_cap_order_flag(tmp_path):
    assert main(["chartable", "b2_f3", "--cap-order", "5"]) == 3


@pytest.mark.parametrize("argv", [["chartable", "b3_f5"], ["orbits", "b3_f5", "--ideal", "2"]])
def test_raised_cap_order_needs_no_inner_cap(tmp_path, capsys, argv):
    # |G| = 8000: unit_group is the one check, so a raised cap reaches the
    # table and linear_characters with nothing passed along
    assert main(argv + ["--cap-order", "8000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(argv + ["--cap-order", "7999", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "cap exceeded: group order 8000 exceeds cap 7999\n"


@pytest.mark.parametrize("argv", [["chartable", "b2_f3"], ["corpus"], ["--help"]])
@pytest.mark.parametrize("value", ["abc", "1e3", ""])
def test_malformed_cap_order_variable_is_a_spec_error(monkeypatch, capsys, argv, value):
    monkeypatch.setenv("BRW_CAP_ORDER", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spec error: BRW_CAP_ORDER must be a positive integer, not {value!r}\n"


@pytest.mark.parametrize("value", ["-5", "0"])
def test_cap_order_variable_must_be_positive(monkeypatch, capsys, value):
    monkeypatch.setenv("BRW_CAP_ORDER", value)
    assert main(["chartable", "b2_f3"]) == 2
    assert capsys.readouterr().err == "spec error: caps must be positive\n"


@pytest.mark.parametrize("flag,value", [("--cap-scan", "0"), ("--cap-scan", "-1"),
                                        ("--cap-order", "0")])
def test_caps_must_be_positive(capsys, flag, value):
    assert main(["gutkin", "b2_f2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "spec error: caps must be positive\n"


def test_malformed_cap_order_variable_exits_2_without_traceback():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, BRW_CAP_ORDER="abc")
    out = subprocess.run([sys.executable, "-m", "brw.cli", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "spec error: BRW_CAP_ORDER must be a positive integer, not 'abc'\n"


@pytest.mark.parametrize("argv", [["info", "b2_f2"], ["chartable", "b2_f2"],
                                  ["gutkin", "b2_f2"], ["orbits", "b2_f2"],
                                  ["local", "chargroup", "--p", "2", "--k", "1"], ["corpus"]])
@pytest.mark.parametrize("below", [False, True])
def test_unwritable_out_is_a_spec_error(tmp_path, capsys, argv, below):
    # --out naming a regular file, or a directory below one
    blocker = tmp_path / "report"
    blocker.write_text("")
    out = blocker / "x" if below else blocker
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("spec error: cannot write")


def test_gutkin_single_spec(tmp_path):
    code, out = run(tmp_path, "gutkin", "b3_f2", "--mode", "both")
    assert code == 0
    rep = load(out, "gutkin_b3_f2.json")
    block = rep["results"][0]
    assert block["degrees"] == [1, 1, 1, 1, 2]
    assert block["constructive_ok"] and block["brute_ok"] and block["modes_agree"]
    for w in block["witnesses"]:
        assert w["constructive"]["induced_matches"]
        assert w["brute"]["witness_count"] > 0
        assert w["agree"]


def test_gutkin_constructive_mode(tmp_path):
    code, out = run(tmp_path, "gutkin", "b3_f3", "--mode", "constructive")
    assert code == 0
    block = load(out, "gutkin_b3_f3.json")["results"][0]
    assert block["sum_degree_squares"] == 216
    assert all(w["constructive"]["induced_matches"] for w in block["witnesses"])


def test_gutkin_brute_skip_over_cap(tmp_path):
    code, out = run(tmp_path, "gutkin", "b4_f2", "--mode", "both")
    assert code == 0
    block = load(out, "gutkin_b4_f2.json")["results"][0]
    assert "brute_skipped" in block
    assert all("skipped" in w["brute"] for w in block["witnesses"])


@pytest.mark.parametrize("mode", ["brute", "constructive"])
def test_gutkin_over_the_scan_bound_by_mode(tmp_path, capsys, mode):
    # dim b4_f2 = 10 exceeds the scan bound 6 for p = 2: with no search left
    # to run, brute mode is a cap hit; constructive mode runs no brute search
    code, out = run(tmp_path, "gutkin", "b4_f2", "--mode", mode)
    err = capsys.readouterr().err
    if mode == "brute":
        assert code == 3 and not out.exists()
        assert err == "cap exceeded: dim 10 exceeds subalgebra scan bound 6 for p=2\n"
    else:
        block = load(out, "gutkin_b4_f2.json")["results"][0]
        assert code == 0 and err == "" and block["constructive_ok"]
        assert "brute_skipped" not in block and block["brute_ok"] is None


def test_orbits_two_orbit_structure(tmp_path):
    for spec, zp in [("b2_f2", 2), ("b2_f3", 6), ("b2_f5", 20)]:
        code, out = run(tmp_path, "orbits", spec, "--ideal", "1")
        assert code == 0
        rep = load(out, f"orbits_{spec}.json")
        assert rep["num_orbits"] == 2
        nontrivial = [o for o in rep["orbits"] if o["size"] > 1 or zp == 2]
        stab_orders = sorted(o["stabilizer_order"] for o in rep["orbits"])
        assert zp in stab_orders
        assert all(o["certified"] for o in rep["orbits"])


def test_orbits_central_ideal(tmp_path):
    code, out = run(tmp_path, "orbits", "b3_f2", "--ideal", "2")
    assert code == 0
    rep = load(out, "orbits_b3_f2.json")
    assert all(o["size"] == 1 for o in rep["orbits"])
    assert rep["num_orbits"] == 2


def test_orbits_radical_power_zero_is_a_spec_error(tmp_path, capsys):
    # J^0 is not a radical power: a one-line spec error, not a traceback
    code, _ = run(tmp_path, "orbits", "b2_f3", "--ideal", "0")
    assert code == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("rows", ['[[1]]', '"2"', '{"a": 1}', '[["x", 0, 0]]', '[[0, 0, 1.5]]'])
def test_orbits_malformed_ideal_rows_are_spec_errors(tmp_path, capsys, rows):
    code, _ = run(tmp_path, "orbits", "b2_f3", "--ideal", rows)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("spec error:") and err.count("\n") <= 1


@pytest.mark.parametrize("value", ['"2"', '{"a": 1}', '5.5', 'null'])
def test_orbits_ideal_that_is_not_a_list(tmp_path, capsys, value):
    code, _ = run(tmp_path, "orbits", "b2_f3", "--ideal", value)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"spec error: --ideal must be a radical power or a JSON list of rows, not {value}\n"


def test_orbits_ideal_outside_the_radical_is_a_spec_error(tmp_path, capsys):
    # the rows span all of A, a two-sided ideal that is not inside J
    code, _ = run(tmp_path, "orbits", "b2_f3", "--ideal", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
    err = capsys.readouterr().err
    assert code == 2 and err == "spec error: --ideal: ideal is not contained in the radical\n"


def test_orbits_ideal_rows(tmp_path):
    # the rows of J^2 written out give the orbits of --ideal 2
    code, out = run(tmp_path, "orbits", "b3_f3", "--ideal", "[[0, 0, 0, 0, 1, 0]]")
    code2, out2 = run(tmp_path / "n", "orbits", "b3_f3", "--ideal", "2")
    assert code == code2 == 0
    rows, power = load(out, "orbits_b3_f3.json"), load(out2, "orbits_b3_f3.json")
    assert rows["ideal"] == "custom" and power["ideal"] == "J^2"
    assert rows["orbits"] == power["orbits"]


def test_local_factor(tmp_path):
    code, out = run(tmp_path, "local", "factor", "--p", "3", "--k", "2",
                    "--unit", "1", "--r", "3", "--phase", "4:1")
    assert code == 0
    rep = load(out, "factor_p3k2u1.json")
    assert rep["round_trip"] and rep["unitary"]["r"] == "1" and rep["twist"]["r"] == "3"


def test_local_factor_failed_round_trip_writes_nothing(tmp_path, capsys, monkeypatch):
    # a twist whose modulus is off by one: unitary * twist is not the input
    real = brw.localfield.factor_unitary

    def off_by_one(chi):
        unitary, twist = real(chi)
        return unitary, SmoothCharLocal(twist.p, twist.k, twist.unit_part, twist.r + 1,
                                        twist.phase_m, twist.phase_e)
    monkeypatch.setattr(brw.localfield, "factor_unitary", off_by_one)
    out = tmp_path / "out"
    out.mkdir()
    code = main(["local", "factor", "--p", "3", "--k", "2", "--unit", "1", "--r", "1/3",
                 "--phase", "6:5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("verification failure: unitary * twist differs from the "
                            "input character\n")
    assert list(out.iterdir()) == []


def test_local_chargroup(tmp_path):
    code, out = run(tmp_path, "local", "chargroup", "--p", "2", "--k", "3")
    assert code == 0
    rep = load(out, "chargroup_p2k3.json")
    assert rep["unit_divisors"] == [2, 2]


def test_local_admissible_on_witness_file(tmp_path):
    code, out = run(tmp_path, "gutkin", "b2_f3", "--mode", "constructive")
    assert code == 0
    wit = os.path.join(str(out), "gutkin_b2_f3.json")
    code2, out2 = run(tmp_path, "local", "admissible", "b2_f3", "--witness", wit)
    assert code2 == 0
    rep = load(out2, "admissible_b2_f3.json")
    for entry in rep["per_witness"]:
        assert entry["admissible_shape"] == (entry["degree"] == 1)


_BAD_WITNESSES = {
    "not_json": "{",
    "list": "[1, 2]",
    "no_spec_name": json.dumps({"results": [{"witnesses": []}]}),
    "short_row": json.dumps({"results": [{"spec_name": "b2_f3", "witnesses": [
        {"index": 0, "degree": 1, "constructive": {"subalgebra_basis": [[1, 1]]}}]}]}),
}


@pytest.mark.parametrize("case", ["missing"] + sorted(_BAD_WITNESSES))
def test_local_admissible_malformed_witness(tmp_path, capsys, case):
    path = tmp_path / "witness.json"
    if case != "missing":
        path.write_text(_BAD_WITNESSES[case], encoding="utf-8")
    code, _ = run(tmp_path, "local", "admissible", "b2_f3", "--witness", str(path))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("spec error:") and err.count("\n") <= 1


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for dest in (a, b):
        assert main(["gutkin", "b2_f3", "b3_f2", "--mode", "both",
                     "--seed", "7", "--out", str(dest)]) == 0
        assert main(["chartable", "b2_f5", "--seed", "7", "--out", str(dest)]) == 0
        assert main(["orbits", "b2_f3", "--seed", "7", "--out", str(dest)]) == 0
    for name in ("gutkin.json", "chartable_b2_f5.csv", "orbits_b2_f3.json"):
        with open(a / name, "rb") as f1, open(b / name, "rb") as f2:
            assert f1.read() == f2.read(), name


# the sha256 of the default-corpus `gutkin --mode both` report, as pinned in CI
DEFAULT_CORPUS_BOTH_SHA256 = "ef3af0cbad24f97dfb14a211b2f9a87eec9e0943f8b601d40fcbe7353b2a98f5"

F9_SPEC = {"p": 3, "dim": 2, "one": [1, 0], "sc": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]}


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count that `gutkin` divides its specs by (1 to 3)."""
    def set_count(k):
        assert 1 <= k <= 3
        monkeypatch.setattr(brw.cli, "_cpu_count", lambda: k)
    return set_count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gutkin_reports_identical_for_one_two_and_three_workers(tmp_path, cpus):
    specs = ["b2_f2", "b2_f3", "b3_f2", "pattern3_f2", "diag2_f2"]
    reports = []
    for k in (1, 2, 3):
        cpus(k)
        out = tmp_path / f"w{k}"
        assert main(["gutkin", *specs, "--mode", "both", "--out", str(out)]) == 0
        assert_no_child_left()
        reports.append((out / "gutkin.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_gutkin_runs_the_shares_it_cannot_fork(tmp_path, cpus, monkeypatch):
    specs = ["b2_f2", "b2_f3", "b3_f2", "diag2_f2"]
    cpus(1)
    assert main(["gutkin", *specs, "--out", str(tmp_path / "w1")]) == 0
    forks, real_fork = [], os.fork

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()
    monkeypatch.setattr(os, "fork", fork_once)
    cpus(3)
    assert main(["gutkin", *specs, "--out", str(tmp_path / "w3")]) == 0
    assert len(forks) == 2
    assert_no_child_left()
    assert (tmp_path / "w1" / "gutkin.json").read_bytes() == \
        (tmp_path / "w3" / "gutkin.json").read_bytes()


def test_gutkin_default_corpus_report_matches_the_pin(tmp_path, cpus, monkeypatch):
    monkeypatch.delenv("BRW_CAP_ORDER", raising=False)    # the report records the cap
    cpus(3)
    assert main(["gutkin", "--mode", "both", "--out", str(tmp_path)]) == 0
    assert_no_child_left()
    digest = hashlib.sha256((tmp_path / "gutkin.json").read_bytes()).hexdigest()
    assert digest == DEFAULT_CORPUS_BOTH_SHA256


def test_gutkin_decomposes_each_algebra_once(tmp_path, monkeypatch):
    # fresh corpus algebras, in this process: the top level reads A's cached
    # decomposition and each proper sublevel decomposes its Subalgebra's rows,
    # so within a spec no decomposition repeats (brw.gutkin binds its own
    # basic_decomposition, so both binding sites are counted)
    monkeypatch.setattr(brw.corpus, "_algebras", {})
    seen, real = [], brw.algebra.basic_decomposition
    built, real_init = [], brw.algebra.Algebra.__init__

    def counted(B):
        seen[-1].append(B.rows if isinstance(B, Subalgebra) else "top")
        return real(B)

    def counted_init(A, *args, **kwargs):
        built.append(args)
        real_init(A, *args, **kwargs)
    monkeypatch.setattr(brw.algebra, "basic_decomposition", counted)
    monkeypatch.setattr(brw.gutkin, "basic_decomposition", counted)
    monkeypatch.setattr(brw.algebra.Algebra, "__init__", counted_init)
    for name in DEFAULT_CORPUS:
        seen.append([])
        assert main(["gutkin", name, "--mode", "both", "--out", str(tmp_path)]) == 0
        assert len(set(seen[-1])) == len(seen[-1]), name
    # each spec algebra and each of 13 proper sublevels, once; only spec
    # ingestion builds an Algebra (no level algebra, no quotient by J)
    assert sum(map(len, seen)) == len(DEFAULT_CORPUS) + 13
    assert len(built) == len(DEFAULT_CORPUS)


def test_gutkin_certifies_each_stabilizer_span_once(tmp_path, monkeypatch, cpus):
    # fresh corpus algebras, in this process: a stabilizer span whose Level
    # is cached keeps that Level's Subalgebra, so no span is closure-certified
    # twice for one owner (the top levels are certified here too, once each)
    monkeypatch.setattr(brw.corpus, "_algebras", {})
    certified, real = [], brw.gutkin.Subalgebra

    def counted(A, rows):
        sub = real(A, rows)
        certified.append((id(A), sub.rows))
        return sub
    monkeypatch.setattr(brw.gutkin, "Subalgebra", counted)
    cpus(1)
    assert main(["gutkin", "--mode", "both", "--out", str(tmp_path)]) == 0
    assert len(set(certified)) == len(certified) > len(DEFAULT_CORPUS)


def test_gutkin_admissible_shape_against_the_recertified_subalgebra(tmp_path, cpus):
    # the flag read off the witness's own Subalgebra equals the flag of the
    # subalgebra certified again from the report's basis
    cpus(1)
    code, out = run(tmp_path, "gutkin", "--mode", "constructive")
    assert code == 0
    count = 0
    for block in load(out, "gutkin.json")["results"]:
        A = corpus_algebra(block["spec_name"])
        for entry in block["witnesses"]:
            w = entry["constructive"]
            B = Subalgebra(A, [tuple(r) for r in w["subalgebra_basis"]])
            assert w["admissible_shape"] == is_admissible_shape(InductionDatum(A, B))
            count += 1
    assert count == sum(b["num_irreducibles"] for b in load(out, "gutkin.json")["results"])


@pytest.mark.parametrize("f9_first", [True, False])
def test_gutkin_first_failure_in_spec_order_wins(tmp_path, capsys, cpus, f9_first):
    f9 = tmp_path / "f9.json"
    f9.write_text(json.dumps(F9_SPEC))
    bad = [str(f9), str(tmp_path / "missing.json")]
    if not f9_first:
        bad.reverse()
    # index 2 runs in this process and index 3 in a child for two workers;
    # for three it is the other way round
    specs = ["b2_f2", "b2_f3"] + bad
    assert main(["gutkin", bad[0]]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("spec error:") and expected.count("\n") == 1
    for k in (1, 2, 3):
        cpus(k)
        assert main(["gutkin", *specs, "--out", str(tmp_path / "out")]) == 2, k
        assert capsys.readouterr().err == expected, k
        assert_no_child_left()


def test_gutkin_worker_without_a_result(tmp_path, capsys, cpus, monkeypatch):
    # the parent's spec waits until the child has taken the other one, so the
    # child surely pulls a spec from the queue before it dies
    parent, one = os.getpid(), brw.cli._gutkin_one
    r, w = os.pipe()

    def dies_in_a_child(name, spec, args):
        if os.getpid() != parent:
            os.write(w, b"x")
            os._exit(9)
        os.read(r, 1)
        return one(name, spec, args)
    monkeypatch.setattr(brw.cli, "_gutkin_one", dies_in_a_child)
    cpus(2)
    try:
        assert main(["gutkin", "b2_f2", "b2_f3", "--out", str(tmp_path)]) == 4
    finally:
        os.close(r)
        os.close(w)
    assert capsys.readouterr().err == (
        "verification failure: gutkin worker 1 ended without a result (exit code 9)\n")
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["both", "brute"])
def test_gutkin_brute_failure_exits_4_and_writes_nothing(tmp_path, capsys, cpus,
                                                        monkeypatch, mode):
    # a brute search that finds no witness for one spec ends the run: for one
    # to three workers, one stderr line, nothing on stdout and no report
    real = brw.gutkin.verify_gutkin_brute

    def fails_on_b2_f3(A, **kwargs):
        if A.p == 3:    # b2_f3 is the one spec over F_3 here
            raise VerificationFailure("irreducibles without witness: [3]")
        return real(A, **kwargs)
    monkeypatch.setattr(brw.gutkin, "verify_gutkin_brute", fails_on_b2_f3)
    for k in (1, 2, 3):
        cpus(k)
        out = tmp_path / f"w{k}"
        out.mkdir()
        assert main(["gutkin", "b2_f2", "b2_f3", "b3_f2", "--mode", mode,
                     "--out", str(out)]) == 4, k
        captured = capsys.readouterr()
        assert captured.err == "verification failure: irreducibles without witness: [3]\n", k
        assert captured.out == "", k
        assert list(out.iterdir()) == [], k
        assert_no_child_left()


def test_spec_cost_reads_dim_off_the_spec_and_never_raises(tmp_path):
    cost = brw.cli._spec_cost
    for name in DEFAULT_CORPUS:    # pattern specs: dim = n + |closed_pairs|
        A = corpus_algebra(name)
        assert cost(name) == pytest.approx(A.dim * math.log(A.p)), name
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"p": 3, "dim": 1, "one": [1], "sc": [[[1]]]}))
    assert cost(str(sc)) == pytest.approx(math.log(3))
    bad = [{"p": "3", "pattern": {"n": 2, "closed_pairs": []}}, {"p": 3, "sc": 5},
           {"p": 3, "pattern": {"n": 10 ** 400, "closed_pairs": []}}, {"p": -3, "sc": []}, [1]]
    for k, spec in enumerate(bad):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(spec))
        assert cost(str(path)) == math.inf, spec
    assert cost(str(tmp_path / "missing.json")) == math.inf
    assert cost("no_such_corpus_name") == math.inf


def test_gutkin_unreadable_spec_fails_before_later_specs_run(tmp_path, capsys, cpus,
                                                            monkeypatch):
    # one worker: the unreadable spec is pulled first, so the spec after it
    # never runs, as in a serial loop
    ran, one = [], brw.cli._gutkin_one

    def recorded(name, spec, args):
        ran.append(name)
        return one(name, spec, args)
    monkeypatch.setattr(brw.cli, "_gutkin_one", recorded)
    cpus(1)
    assert main(["gutkin", str(tmp_path / "missing.json"), "b2_f3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("spec error: cannot read spec")
    assert ran == []


def test_gutkin_queue_runs_every_spec_once_under_more_workers_than_cpus(tmp_path, cpus,
                                                                        monkeypatch):
    # 40 specs for three workers on a machine with fewer CPUs: every spec is
    # pulled by exactly one worker, as a log appended by each run shows
    log, one = tmp_path / "runs.log", brw.cli._gutkin_one

    def logged(name, spec, args):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        return one(name, spec, args)
    monkeypatch.setattr(brw.cli, "_gutkin_one", logged)
    specs = ["diag1_f5", "b2_f2", "diag2_f2", "pattern3_f2"] * 10
    start = time.perf_counter()
    for k in (1, 3):
        cpus(k)
        assert main(["gutkin", *specs, "--mode", "both", "--out", str(tmp_path / f"w{k}")]) == 0
        assert_no_child_left()
    assert time.perf_counter() - start < 60
    assert len(log.read_text().split()) == 2 * len(specs)
    assert (tmp_path / "w1" / "gutkin.json").read_bytes() == \
        (tmp_path / "w3" / "gutkin.json").read_bytes()


def test_gutkin_reports_identical_with_specs_in_reverse_cost_order(tmp_path, cpus,
                                                                   monkeypatch):
    # cheapest first, so every worker count reorders all of them (one worker
    # runs them longest first); the blocks still come out in the order given
    specs = ["diag2_f2", "b2_f2", "b2_f3", "pattern3_f2", "b3_f2"]
    costs = [brw.cli._spec_cost(s) for s in specs]
    assert costs == sorted(costs) and len(set(costs)) == len(costs)
    ran, one = [], brw.cli._gutkin_one

    def recorded(name, spec, args):
        ran.append(name)
        return one(name, spec, args)
    monkeypatch.setattr(brw.cli, "_gutkin_one", recorded)
    reports = []
    for k in (1, 2, 3):
        cpus(k)
        out = tmp_path / f"w{k}"
        assert main(["gutkin", *specs, "--mode", "both", "--out", str(out)]) == 0
        assert_no_child_left()
        reports.append((out / "gutkin.json").read_bytes())
        if k == 1:
            assert ran == specs[::-1]
    assert reports[0] == reports[1] == reports[2]
    assert [b["spec_name"] for b in json.loads(reports[0])["results"]] == specs
    # and each block is the one a run of its spec alone writes
    for name, block in zip(specs, json.loads(reports[0])["results"]):
        assert main(["gutkin", name, "--mode", "both", "--out", str(tmp_path / name)]) == 0
        assert load(tmp_path / name, f"gutkin_{name}.json")["results"] == [block]


def test_gutkin_interrupt_reaps_every_child(tmp_path, cpus, monkeypatch):
    parent = os.getpid()

    def interrupted(name, spec, args):
        if os.getpid() != parent:
            time.sleep(60)    # killed by the parent long before
        raise KeyboardInterrupt
    monkeypatch.setattr(brw.cli, "_gutkin_one", interrupted)
    cpus(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["gutkin", "b2_f2", "b2_f3", "b3_f2", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 30
    assert_no_child_left()


# A fresh process that logs "pid module" for every brw module it compiles and
# "pid fork" for every os.fork, imports brw.cli, logs "pid imported", then
# runs the CLI on argv[2:] with two CPUs. An empty pycache prefix makes every
# import compile its source.
_COMPILE_LOG = """
import importlib.machinery, os, sys
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)

def note(what):
    os.write(log, f"{os.getpid()} {what}\\n".encode())

real_compile = importlib.machinery.SourceFileLoader.source_to_code

def source_to_code(self, data, path, **kwargs):
    if os.path.basename(os.path.dirname(path)) == "brw":
        note(os.path.basename(path)[:-3])
    return real_compile(self, data, path, **kwargs)

importlib.machinery.SourceFileLoader.source_to_code = source_to_code
real_fork = os.fork

def fork():
    note("fork")
    return real_fork()

os.fork = fork
import brw.cli
note("imported")
brw.cli._cpu_count = lambda: 2
sys.exit(brw.cli.main(sys.argv[2:]))
"""


def compile_log(tmp_path, *argv):
    """[(pid, event)] of one _COMPILE_LOG process, and its own pid."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    log = tmp_path / "compiled.log"
    proc = subprocess.Popen([sys.executable, "-c", _COMPILE_LOG, str(log), *argv,
                             "--out", str(tmp_path / "out")], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode in (0, 2), err
    events = [line.split(" ", 1) for line in log.read_text().splitlines()]
    return [(int(pid), what) for pid, what in events], proc.pid


@pytest.mark.parametrize("argv,layers", [
    (["corpus"], []),
    (["info", "missing.json"], []),                       # a spec error
    (["info", "b2_f2"], ["groups"]),
    (["chartable", "b2_f3"], ["chars", "groups"]),
    (["local", "chargroup", "--p", "3", "--k", "2"], ["groups", "localfield"]),
    (["orbits", "b2_f3"], ["chars", "groups", "gutkin"]),
], ids=["corpus", "spec-error", "info", "chartable", "chargroup", "orbits"])
def test_each_command_compiles_only_the_layers_it_runs(tmp_path, argv, layers):
    events, pid = compile_log(tmp_path, *argv)
    assert {p for p, _ in events} == {pid}
    at = [what for _, what in events].index("imported")
    assert sorted(what for _, what in events[:at]) == \
        ["__init__", "algebra", "cli", "corpus", "errors", "exact"]
    assert sorted(what for _, what in events[at + 1:]) == layers


def test_gutkin_compiles_every_layer_before_its_first_fork(tmp_path):
    # the forked workers find all four deferred layers run and compile nothing
    events, pid = compile_log(tmp_path, "gutkin", "b2_f2", "diag2_f2", "--mode", "both")
    first_fork = events.index((pid, "fork"))
    assert {"groups", "chars", "gutkin", "localfield"} <= {w for _, w in events[:first_fork]}
    assert all(p == pid for p, _ in events)
    assert (tmp_path / "out" / "gutkin.json").exists()


def test_a_layer_deferred_by_the_cli_imports_as_usual(tmp_path):
    # brw.cli registers brw.gutkin without running it; an import then runs it
    # once, binds it on the package and gives its usable functions
    code = """
import sys
import brw.cli
import brw.gutkin
from brw.chars import char_table
from brw.corpus import corpus_algebra
from brw.groups import unit_group
from brw.gutkin import gutkin_decompose
assert brw.gutkin is sys.modules["brw.gutkin"] is brw.cli.gutkin
assert gutkin_decompose is brw.gutkin.gutkin_decompose
A = corpus_algebra("b2_f3")
table = char_table(unit_group(A))
print(all(gutkin_decompose(A, chi).induced_matches for chi in table.irreducibles))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout == "True\n", out.stderr


def test_reading_a_spec_file_does_not_import_importlib_resources(tmp_path):
    # only a corpus spec is read through importlib.resources; -S keeps site
    # from importing it first
    path = tmp_path / "f9.json"
    path.write_text(json.dumps(F9_SPEC))
    code = f"""
import sys
import brw.cli
from brw.corpus import load_spec
load_spec({str(path)!r})
print("importlib.resources" in sys.modules)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout == "False\n", out.stderr


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    listing = json.loads(out)
    assert "b2_f3" in listing["default"] and "b3_f5" in listing["gated"]


def test_explicit_sc_spec_file(tmp_path):
    spec = {"p": 3, "dim": 1, "one": [1], "sc": [[[1]]]}
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(spec))
    code, out = run(tmp_path, "info", str(path))
    assert code == 0
    rep = load(out, "info_scalar.json")
    assert rep["group_order"] == 2


def test_non_split_spec_is_a_spec_error(tmp_path):
    # F_9 written as F_3[x]/(x^2 + 1): semisimple but not split over F_3
    spec = {"p": 3, "dim": 2, "one": [1, 0],
            "sc": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]}
    path = tmp_path / "f9.json"
    path.write_text(json.dumps(spec))
    for command in ("gutkin", "chartable", "orbits"):
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2, command


def test_local_malformed_arguments(capsys):
    assert main(["local", "factor", "--p", "3", "--k", "1", "--phase", "0:1"]) == 2
    assert main(["local", "chargroup", "--p", "4", "--k", "2"]) == 2
    assert main(["local", "factor", "--p", "6", "--k", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3 and all(line.startswith("spec error: ") for line in err)


@pytest.mark.parametrize("argv", [
    ["gutkin", "--mode", "nope"], ["chartable"], ["info", "b2_f2", "--cap-order", "abc"],
    ["gutkin", "--bogus"], ["nosuchcommand"], ["local"], ["local", "factor", "--k", "1"],
], ids=["bad_choice", "missing_spec", "bad_int", "unknown_flag", "unknown_command",
        "missing_subcommand", "missing_required"])
def test_malformed_arguments_are_one_line_spec_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("spec error: ")


def test_local_level_is_capped(capsys):
    # |(Z/2^8)^x| = 128 > 10; 2^39 residues must be refused before enumeration
    assert main(["local", "chargroup", "--p", "2", "--k", "8", "--cap-order", "10"]) == 3
    assert main(["local", "chargroup", "--p", "2", "--k", "40"]) == 3
    assert main(["local", "factor", "--p", "3", "--k", "40"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3 and all(line.startswith("cap exceeded: ") for line in err)


@pytest.mark.parametrize("opt", [[], ["-O"]], ids=["plain", "optimized"])
def test_local_cap_is_compared_before_p_is_trial_divided(tmp_path, opt):
    # 10^18, which is not prime, exits 3 and not 2: the cap is compared before
    # p is tested; the prime 10^18 + 3 is refused as well
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for cmd, p in (("chargroup", 10**18 + 3), ("factor", 10**18 + 3), ("chargroup", 10**18)):
        out = subprocess.run([sys.executable, *opt, "-m", "brw.cli", "local", cmd, "--p", str(p),
                              "--k", "1", "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=20)
        err = out.stderr.splitlines()
        assert out.returncode == 3 and len(err) == 1 and err[0].startswith("cap exceeded: ")


@pytest.mark.parametrize("opt", [[], ["-O"]], ids=["plain", "optimized"])
def test_local_factor_at_level_zero_decides_primality_at_once(tmp_path, opt):
    # k = 0 caps nothing, so p itself is tested: 10^18 + 3 is prime, and the
    # least strong pseudoprime to every Miller-Rabin base is past the test's
    # bound, which is refused as a cap
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for p, code in ((10**18 + 3, 0), (MILLER_RABIN_BOUND, 3)):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, *opt, "-m", "brw.cli", "local", "factor",
                              "--p", str(p), "--k", "0", "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=30)
        assert out.returncode == code and time.perf_counter() - start < 5, out.stderr
        err = out.stderr.splitlines()
        assert err == [] if code == 0 else len(err) == 1 and err[0].startswith("cap exceeded: ")


@pytest.mark.parametrize("spec", [
    {"p": 3, "dim": 1, "one": [1], "sc": [1]},
    {"p": 3, "dim": 1, "one": [1], "sc": [[["a"]]]},
    {"p": 3, "dim": 1, "one": "x", "sc": [[[1]]]},
    {"p": 3, "pattern": {"n": 2, "closed_pairs": 5}},
    {"p": 3.0, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}},
    {"p": 3, "dim": 1.0, "one": [1], "sc": [[[1]]]},
    {"p": 3, "dim": 1, "one": [1], "sc": [[[1]]], "labels": []},
    {"p": 2, "dim": 1, "one": [1], "sc": [[[1]]], "labels": [5]},
], ids=["sc_plane_not_a_list", "sc_entry_not_an_integer", "one_not_a_list",
        "closed_pairs_not_a_list", "p_not_an_integer", "dim_not_an_integer",
        "labels_empty", "label_not_a_string"])
def test_malformed_spec_is_a_spec_error(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["chartable", str(path)]) == 2
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("spec error: ") for line in err)


def explicit_spec(A):
    return {"p": A.p, "dim": A.dim, "one": list(A.one),
            "sc": [[list(row) for row in plane] for plane in A.sc]}


def _certificate_corruptions(seed):
    """(name, spec) for explicit corpus specs, in their monomial basis and in
    a dense random one, each with one entry of sc or of one changed: every
    entry of one, and a seeded sample of the entries of sc."""
    rng = random.Random(seed)
    dense = ("b2_f5", "b3_f2", "pattern3_f3", "b3_f3", "b4_f2")
    bases = [(name, explicit_spec(corpus_algebra(name))) for name in DEFAULT_CORPUS]
    bases += [(f"dense {name}", explicit_spec(rebased(corpus_algebra(name), rng)))
              for name in dense]
    for name, spec in bases:
        p, dim = spec["p"], spec["dim"]
        for t in range(dim):
            broken = copy.deepcopy(spec)
            broken["one"][t] = (broken["one"][t] + 1) % p
            yield name, broken
        for i, j, k in rng.sample(list(product(range(dim), repeat=3)), min(8, dim ** 3)):
            broken = copy.deepcopy(spec)
            broken["sc"][i][j][k] = (broken["sc"][i][j][k] + rng.randrange(1, p)) % p
            yield name, broken


def test_certificate_names_the_first_failing_check(tmp_path, capsys):
    """Every corruption fails the certificate: Algebra(...) and brw info name
    the basis index of the first identity failure, or else the
    lexicographically first non-associative triple, that
    spec_certificate_oracle finds on the tensor; info exits 2 with that one
    stderr line."""
    path = tmp_path / "spec.json"
    seen = set()
    for name, spec in _certificate_corruptions(28):
        expected = spec_certificate_oracle(spec)
        with pytest.raises(SpecError) as err:
            Algebra(spec["p"], spec["sc"], spec["one"])
        assert str(err.value) == expected, name
        path.write_text(json.dumps(spec))
        assert main(["info", str(path)]) == 2, name
        assert capsys.readouterr().err.splitlines() == [f"spec error: {expected}"], name
        seen.add((name.startswith("dense"), expected.split()[0]))
    assert seen == {(dense, kind) for dense in (False, True)
                    for kind in ("'one'", "associativity")}


def _pattern_mutations(spec, rng):
    pat = spec["pattern"]
    n, pairs = pat["n"], pat["closed_pairs"]
    pair = rng.choice(pairs) if pairs else [1, 2]
    return [
        # types
        dict(spec, p=float(spec["p"])), dict(spec, p=str(spec["p"])), dict(spec, p=True),
        dict(spec, pattern=dict(pat, n=str(n))),
        dict(spec, pattern=dict(pat, closed_pairs=pairs + [[str(pair[0]), pair[1]]])),
        # shapes
        [spec], dict(spec, pattern=[n, pairs]), dict(spec, pattern=dict(pat, closed_pairs={"a": 1})),
        dict(spec, pattern=dict(pat, closed_pairs=pairs + [pair + [3]])),
        dict(spec, pattern={"n": n}),
        # ranges
        dict(spec, p=rng.choice([0, 1, -3, 4, 6, 9, 11, 25])),
        dict(spec, pattern=dict(pat, n=rng.choice([0, -2]))),
        dict(spec, pattern=dict(pat, closed_pairs=pairs + [pair[::-1]])),
        dict(spec, pattern=dict(pat, closed_pairs=pairs + [[0, 1], [1, n + 1]][rng.randrange(2):])),
        dict(spec, pattern=dict(pat, closed_pairs=pairs + [pair])),
        # sizes: orders far above the default cap
        {"p": 3, "pattern": {"n": rng.choice([13, 20, 40]), "closed_pairs": []}},
        {"p": rng.choice([3, 5]), "pattern": {"n": 6, "closed_pairs": [
            [i, j] for i in range(1, 7) for j in range(i + 1, 7)]}},
    ]


def _explicit_mutations(spec, rng):
    dim = spec["dim"]
    i, j, k = (rng.randrange(dim) for _ in range(3))
    broken = copy.deepcopy(spec)
    broken["sc"][i][j][k] = (broken["sc"][i][j][k] + 1) % spec["p"]
    typed = copy.deepcopy(spec)
    typed["sc"][i][j][k] = rng.choice(["1", 1.5, None])
    short = copy.deepcopy(spec)
    del short["sc"][i][j][-1]
    return [
        dict(spec, one=[float(x) for x in spec["one"]]), dict(spec, labels="abc"), typed,
        dict(spec, one=spec["one"][:-1]), short, {key: v for key, v in spec.items() if key != "sc"},
        dict(spec, dim=dim + 1), dict(spec, dim=0),
        # algebra: non-associative or non-unital structure constants
        broken, dict(spec, one=[0] * dim), dict(spec, one=[int(t == k) for t in range(dim)]),
    ]


def fuzz_specs(seed):
    """Seeded mutations of corpus specs (types, shapes, ranges, sizes and
    structure constants), plus algebras that are not split basic."""
    rng = random.Random(seed)
    specs = []
    for name in rng.sample(DEFAULT_CORPUS, 3):
        specs += _pattern_mutations(corpus_spec(name), rng)
        specs += _explicit_mutations(explicit_spec(corpus_algebra(name)), rng)
    specs += [explicit_spec(A) for A in (matrix_algebra_2x2(2), polynomial_quotient(3, [1, 0]),
                                         polynomial_quotient(2, [1, 1]))]
    # a p = 2 size: |G| = 1 passes the cap, but the span of the units has 2^40 vectors
    specs.append({"p": 2, "pattern": {"n": 40, "closed_pairs": []}})
    return specs


class SpecTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise SpecTimeout("no answer within the time bound")


def test_spec_fuzz(tmp_path, capsys):
    """Every mutated spec gets an answer from info, chartable, gutkin and
    orbits within 15 s: exit 0, 2, 3 or 4, no exception and at most one
    line on stderr."""
    path = tmp_path / "spec.json"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for t, spec in enumerate(fuzz_specs(2024)):
            path.write_text(json.dumps(spec))
            signal.alarm(15)
            for command in ("info", "chartable", "gutkin", "orbits"):
                code = main([command, str(path), "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err.strip().splitlines()
                assert code in (0, 2, 3, 4) and len(err) <= 1, (t, spec, command, code, err)
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
