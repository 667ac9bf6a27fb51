"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import os
import random
import time
from fractions import Fraction

from brw.algebra import (Subalgebra, Subspace, basic_decomposition,
                         bimodule_complement, bimodule_decompose,
                         enumerate_subalgebras, is_split_basic, radical,
                         radical_power)
from brw.chars import (char_from_linear, char_table, induce, inner_product,
                       restrict)
from brw.cli import main
from brw.corpus import DEFAULT_CORPUS, corpus_algebra
from brw.groups import (center, char_orbit, ideal_subgroup, linear_characters,
                        radical_subgroup, set_product, torus_subgroup,
                        unit_group)
from brw.gutkin import (SigmaData, diag_centraliser_level, extend_character,
                        gutkin_decompose, ideal_intersection_test, j_sigma,
                        phi_sigma, top_level)
from brw.localfield import (InductionDatum, SmoothCharLocal, factor_unitary,
                            is_admissible_shape, unit_characters)

TOLERANCE_NOTE = "exact (zero tolerance)"


def _report(tmp_path, seed=0):
    out = tmp_path / f"run_{seed}"
    code = main(["gutkin", "--mode", "both", "--seed", str(seed), "--out", str(out)])
    with open(out / "gutkin.json", "r", encoding="utf-8") as f:
        return code, json.load(f)


def test_criterion_1_gutkin_verification(tmp_path):
    t0 = time.time()
    code, rep = _report(tmp_path)
    elapsed = time.time() - t0
    assert code == 0 and rep["all_ok"]
    blocks = {b["spec_name"]: b for b in rep["results"]}
    assert set(blocks) == set(DEFAULT_CORPUS)
    # expected counts
    assert blocks["b2_f3"]["num_irreducibles"] == 6
    assert sorted(blocks["b2_f3"]["degrees"]) == [1, 1, 1, 1, 2, 2]
    assert blocks["b3_f2"]["num_irreducibles"] == 5
    assert sorted(blocks["b3_f2"]["degrees"]) == [1, 1, 1, 1, 2]
    assert blocks["b3_f3"]["sum_degree_squares"] == 216
    for name, block in blocks.items():
        assert block["constructive_ok"], name
        for w in block["witnesses"]:
            assert w["constructive"]["induced_matches"], (name, w["index"])
            if "witness_count" in w.get("brute", {}):
                assert w["brute"]["witness_count"] > 0, (name, w["index"])
        if block["brute_ok"] is not None:
            assert block["brute_ok"] and block["modes_agree"], name
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds the 60 s target"
    print(f"\ncriterion 1 PASS: gutkin --mode both on {len(blocks)} corpus specs, "
          f"exact induced-character equality, {elapsed:.1f}s (< 60 s)")


def test_criterion_2_orbit_structure(tmp_path):
    for q in (2, 3, 5):
        name = f"b2_f{q}"
        out = tmp_path / name
        assert main(["orbits", name, "--ideal", "1", "--out", str(out)]) == 0
        with open(out / f"orbits_{name}.json", "r", encoding="utf-8") as f:
            rep = json.load(f)
        assert rep["num_orbits"] == 2, name
        # derived check: the nontrivial stabilizer is Z P of order (q-1) q
        A = corpus_algebra(name)
        G = unit_group(A)
        P = radical_subgroup(A)
        ZP = set_product(G, center(G), P)
        assert ZP.order == (q - 1) * q
        theta = next(c for c in linear_characters(P) if not c.is_trivial())
        stab = char_orbit(G, P, theta).stabilizer
        assert set(stab.elements) == set(ZP.elements)
        orders = sorted(o["stabilizer_order"] for o in rep["orbits"])
        assert (q - 1) * q in orders
    print("criterion 2 PASS: exactly 2 orbits on P^ for B2(F_q), q in {2,3,5}; "
          "nontrivial stabilizer = ZP of order (q-1)q")


def _sigma_instances():
    """The worked (n, L, sigma) setups used by the lemma suite."""
    out = []
    for name, piece_idx in (("b3_f2", 4), ("b3_f3", 4)):
        A = corpus_algebra(name)
        lvl = top_level(A)
        L = Subspace(A, [A.basis_vector(piece_idx), A.basis_vector(3)])
        N = lvl.one_plus(lvl.radical_power(2))
        for sigma in linear_characters(N):
            out.append(SigmaData(lvl, 2, L, sigma))
    return out


def test_criterion_3_lemma_suite():
    checks = 0
    # Lemma "subalgebra": every enumerated subalgebra is split basic
    for name in ("b2_f2", "b2_f3", "b2_f5", "b3_f2", "pattern3_f3"):
        A = corpus_algebra(name)
        for sub in enumerate_subalgebras(A):
            ok, reason = is_split_basic(sub)
            assert ok, (name, sub.rows, reason)
            checks += 1
    # Lemma "bimodule": dimension bookkeeping and complement existence
    rng = random.Random(1009)
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        dec = basic_decomposition(A)
        J = radical(A)
        comps = bimodule_decompose(dec.diagonal, J)
        assert sum(c.dim for _, _, c in comps) == J.dim
        pieces = [c.rows[t] for _, _, c in comps for t in range(c.dim)]
        for _ in range(4):
            V1 = Subspace(A, [v for v in pieces if rng.random() < 0.5])
            V2 = bimodule_complement(dec.diagonal, J, V1)
            assert V1.dim + V2.dim == J.dim and V1.intersect(V2).dim == 0
            checks += 1
    # Lemma "vphi": J^2 <= J_sigma, codim <= 1, ker phi = 1 + J_sigma, (+)
    for S in _sigma_instances():
        lvl = S.level
        A = lvl.ambient
        js = j_sigma(S)
        assert all(js.contains(v) for v in lvl.radical_power(2).rows)
        assert lvl.radical.dim - js.dim <= 1
        for a in lvl.radical.vectors():
            g = tuple((x + y) % A.p for x, y in zip(A.one, a))
            assert phi_sigma(S, g).is_trivial() == js.contains(a)
            for u in S.L.vectors():
                for c in range(A.p):
                    ca = tuple((c * x) % A.p for x in a)
                    cu = tuple((c * x) % A.p for x in u)
                    assert S.commutator_value(ca, u) == S.commutator_value(a, cu)
                    checks += 1
    # Lemma "ideal" on >= 20 randomized intermediate ideals (hypothesis domain
    # where the scaling argument applies; see the p=2 boundary note in
    # test_gutkin.test_lemma_ideal_fails_for_p2_nontrivial_sigma)
    ideal_cases = 0
    for name, n in (("b3_f3", 2), ("pattern3_f3", 2), ("b4_f2", 3), ("b4_f2", 2)):
        A = corpus_algebra(name)
        lvl = top_level(A)
        dec = basic_decomposition(A)
        Jn = lvl.radical_power(n)
        Jn1 = lvl.radical_power(n - 1)
        comp = bimodule_complement(dec.diagonal, Subspace(A, Jn1.rows), Subspace(A, Jn.rows))
        steps = [v for _, _, c in bimodule_decompose(dec.diagonal, comp) for v in c.rows]
        Jsq = lvl.radical_power(2)
        topc = bimodule_complement(dec.diagonal, Subspace(A, lvl.radical.rows),
                                   Subspace(A, Jsq.rows))
        top_pieces = [v for _, _, c in bimodule_decompose(dec.diagonal, topc) for v in c.rows]
        N = lvl.one_plus(Jn)
        G = lvl.units
        gens = [G.index[g] for g in G.generators()]
        sigmas = [ch for ch in linear_characters(N)
                  if all(ch.conj_by(G, g).exps == ch.exps for g in gens)]
        if A.p == 2:
            sigmas = [s for s in sigmas if s.is_trivial()]
        for _ in range(6):
            S = SigmaData(lvl, n, Subspace(A, Jn.rows + (rng.choice(steps),)),
                          rng.choice(sigmas))
            I = Subspace(A, Jsq.rows + tuple(v for v in top_pieces if rng.random() < 0.5))
            assert ideal_intersection_test(lvl, I, S) is True
            ideal_cases += 1
    assert ideal_cases >= 20
    checks += ideal_cases
    # Proposition "extension": existence, stabilizer identity (i), single orbit (ii)
    for S in _sigma_instances():
        ext = extend_character(S)
        A = S.level.ambient
        assert len(ext.extensions) == S.Q.order // S.N.order
        js = ext.j_sigma
        expected = {tuple((x + y) % A.p for x, y in zip(A.one, v)) for v in js.vectors()}
        for theta in ext.extensions:
            orb = char_orbit(S.level.P, S.Q, theta)
            assert set(orb.stabilizer.elements) == expected
        if ext.single_orbit is not None:
            assert ext.single_orbit
        checks += 1
    # Propositions "centraliser1"/"extension'": centralisers and stabilizer
    # subalgebras certify with matching unit groups (raises on failure)
    for name in ("b2_f3", "b2_f5", "b3_f2", "b3_f3", "pattern3_f3"):
        A = corpus_algebra(name)
        lvl = top_level(A)
        P = radical_subgroup(A)
        for theta in linear_characters(P):
            sub = diag_centraliser_level(lvl, lvl.radical, theta)
            assert sub.contains_one and sub.mult_closed
            checks += 1
    print(f"criterion 3 PASS: lemma suite, {checks} exact checks ({TOLERANCE_NOTE})")


def test_criterion_4_character_oracle_health():
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        G = unit_group(A)
        tab = char_table(G)
        assert len(tab.irreducibles) == tab.conj.k
        assert sum(d * d for d in tab.degrees) == G.order
        assert tab.verify()  # row orthonormality, exact; the column relation follows
    rng = random.Random(2027)
    frobenius = 0
    for name in ("b2_f3", "b3_f2", "b3_f3", "pattern3_f3", "b2_f5"):
        A = corpus_algebra(name)
        G = unit_group(A)
        tab = char_table(G)
        pool = [radical_subgroup(A), torus_subgroup(A),
                set_product(G, center(G), radical_subgroup(A))]
        for H in pool:
            tabH = char_table(H)
            for _ in range(4):
                chi = rng.choice(tabH.irreducibles)
                psi = rng.choice(tab.irreducibles)
                assert inner_product(induce(G, H, chi), psi) == \
                    inner_product(chi, restrict(G, H, psi))
                frobenius += 1
    transitivity = 0
    for name in ("b3_f3", "b4_f2", "b3_f2"):
        A = corpus_algebra(name)
        G = unit_group(A)
        K = set_product(G, center(G), radical_subgroup(A))
        H = ideal_subgroup(A, radical_power(A, 2))
        for lam in linear_characters(H)[:3]:
            chi = char_from_linear(lam)
            assert induce(G, K, induce(K, H, chi)) == induce(G, H, chi)
            transitivity += 1
    assert frobenius + transitivity >= 50
    print(f"criterion 4 PASS: all corpus tables verified exactly; "
          f"{frobenius} reciprocity + {transitivity} transitivity triples")


def test_criterion_5_admissible_consistency(tmp_path):
    flags = {}
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        G = unit_group(A)
        per_spec = []
        for chi in char_table(G).irreducibles:
            w = gutkin_decompose(A, chi)
            B = Subalgebra(A, w.subalgebra_rows)
            adm = is_admissible_shape(InductionDatum(A, B))
            per_spec.append((int(chi.degree), adm))
            if name.startswith("b2_"):
                assert adm == (chi.degree == 1), (name, int(chi.degree))
        flags[name] = per_spec
    # emitted values are deterministic across runs
    code1, rep1 = _report(tmp_path, seed=1)
    code2, rep2 = _report(tmp_path, seed=1)
    emitted1 = {b["spec_name"]: [w["constructive"]["admissible_shape"]
                                 for w in b["witnesses"]] for b in rep1["results"]}
    emitted2 = {b["spec_name"]: [w["constructive"]["admissible_shape"]
                                 for w in b["witnesses"]] for b in rep2["results"]}
    assert emitted1 == emitted2
    for name, per_spec in flags.items():
        assert emitted1[name] == [adm for _, adm in per_spec]
    print("criterion 5 PASS: admissible-shape flag == (degree 1) on B2 algebras; "
          "emitted flags deterministic across runs")


def test_criterion_6_unitarisable_shadow():
    count = 0
    for p, k in [(2, 3), (3, 2), (5, 1)]:
        for alpha in unit_characters(p, k):
            for r in (1, 2, 3, Fraction(1, 2)):
                for m in range(1, 9):
                    for e in range(m):
                        chi = SmoothCharLocal(p, k, alpha, r, m, e)
                        unitary, twist = factor_unitary(chi)
                        assert unitary.is_unitary
                        assert twist.unit_part.is_trivial() and twist.phase_e == 0
                        assert unitary.mul(twist) == chi
                        count += 1
    print(f"criterion 6 PASS: factor_unitary round-trips on {count} grid points, "
          f"exact equality")


def test_criterion_7_determinism(tmp_path):
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    for dest in (a, b):
        assert main(["gutkin", "b2_f3", "b3_f2", "pattern3_f3", "--mode", "both",
                     "--seed", "42", "--out", str(dest)]) == 0
        assert main(["chartable", "b3_f3", "--seed", "42", "--out", str(dest)]) == 0
        assert main(["orbits", "b2_f5", "--seed", "42", "--out", str(dest)]) == 0
        assert main(["local", "chargroup", "--p", "2", "--k", "3",
                     "--seed", "42", "--out", str(dest)]) == 0
    names = ["gutkin.json", "chartable_b3_f3.csv", "orbits_b2_f5.json",
             "chargroup_p2k3.json"]
    for name in names:
        with open(a / name, "rb") as f1, open(b / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    # fresh processes with different hash randomization must also agree
    import subprocess
    import sys
    for dest, hashseed in ((tmp_path / "procA", "1"), (tmp_path / "procB", "2")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        subprocess.run(
            [sys.executable, "-m", "brw.cli", "gutkin", "b2_f3", "b3_f2",
             "--mode", "both", "--seed", "42", "--out", str(dest)],
            check=True, env=env, capture_output=True)
    with open(tmp_path / "procA" / "gutkin.json", "rb") as f1, \
            open(tmp_path / "procB" / "gutkin.json", "rb") as f2:
        assert f1.read() == f2.read()
    print(f"criterion 7 PASS: {len(names)} report files byte-identical across runs "
          f"(including fresh processes with different hash seeds)")
