import copy
import hashlib
import json
import os
import random
import signal
import time

import pytest

import brw.cli
from brw.cli import main
from brw.corpus import DEFAULT_CORPUS, corpus_algebra, corpus_spec
from helpers import matrix_algebra_2x2, polynomial_quotient


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
    parent, one = os.getpid(), brw.cli._gutkin_one

    def dies_in_a_child(name, spec, args):
        if os.getpid() != parent:
            os._exit(9)
        return one(name, spec, args)
    monkeypatch.setattr(brw.cli, "_gutkin_one", dies_in_a_child)
    cpus(2)
    assert main(["gutkin", "b2_f2", "b2_f3", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "verification failure: gutkin worker 1 ended without a result (exit code 9)\n")
    assert_no_child_left()


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


def test_local_level_is_capped(capsys):
    # |(Z/2^8)^x| = 128 > 10; 2^39 residues must be refused before enumeration
    assert main(["local", "chargroup", "--p", "2", "--k", "8", "--cap-order", "10"]) == 3
    assert main(["local", "chargroup", "--p", "2", "--k", "40"]) == 3
    assert main(["local", "factor", "--p", "3", "--k", "40"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3 and all(line.startswith("cap exceeded: ") for line in err)


@pytest.mark.parametrize("spec", [
    {"p": 3, "dim": 1, "one": [1], "sc": [1]},
    {"p": 3, "dim": 1, "one": [1], "sc": [[["a"]]]},
    {"p": 3, "dim": 1, "one": "x", "sc": [[[1]]]},
    {"p": 3, "pattern": {"n": 2, "closed_pairs": 5}},
    {"p": 3.0, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}},
    {"p": 3, "dim": 1.0, "one": [1], "sc": [[[1]]]},
], ids=["sc_plane_not_a_list", "sc_entry_not_an_integer", "one_not_a_list",
        "closed_pairs_not_a_list", "p_not_an_integer", "dim_not_an_integer"])
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
