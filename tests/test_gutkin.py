import random
import re
from fractions import Fraction

import pytest

import brw.chars
import brw.gutkin
from brw.algebra import (DEFAULT_DIM_BOUND, Subalgebra, Subspace,
                         basic_decomposition, bimodule_complement,
                         bimodule_decompose, borel_algebra, cached_decomposition,
                         enumerate_subalgebras, pattern_algebra, radical_power)
from brw.chars import (Character, char_from_linear, char_table, induce, induced_linear,
                       inner_product, restrict)
from brw.cli import main
from brw.corpus import DEFAULT_CORPUS, corpus_algebra
from brw.errors import (CertificationFailure, DecompositionFailure, GroupMismatch,
                        NotInvariant, PreconditionFailure, SpecError)
from brw.exact import Cyclotomic, rref
from brw.groups import (CharOrbit, FiniteGroup, char_orbit, char_orbits, conjugacy_classes,
                        ideal_subgroup, intern_group, linear_characters, radical_subgroup,
                        unit_group, unit_order, units_of_subspace)
from brw.gutkin import (GutkinWitness, SigmaData, _kills_commutators, _one_dim_ideal_steps,
                        _radical_seeds, brute_candidates, certify_stabilizer_subalgebra,
                        extend_character, get_level, gutkin_decompose,
                        ideal_intersection_test, j_sigma, phi_sigma, top_level,
                        verify_gutkin_brute)
from helpers import (assert_orbits_match_oracle, assert_schreier_tree,
                     assert_units_match_oracle, character_of, clifford_oracle, diag_centraliser,
                     echelon_subspaces, fresh_corpus_algebra, group_exponent, j_sigma_oracle,
                     nondegenerate_step_oracle, radical_power_oracle, rebased,
                     run_optimized, subalgebra_algebra, values_of)


# -- fixtures for the worked sigma instances ---------------------------------

@pytest.fixture(scope="module")
def sigma_b3f2():
    A = borel_algebra(2, 3)
    lvl = top_level(A)
    L = Subspace(A, [A.basis_vector(4), A.basis_vector(3)])  # span{e13, e12}
    N = lvl.one_plus(lvl.radical_power(2))
    sigma = next(c for c in linear_characters(N) if not c.is_trivial())
    return SigmaData(lvl, 2, L, sigma)


@pytest.fixture(scope="module")
def sigma_b3f3():
    A = borel_algebra(3, 3)
    lvl = top_level(A)
    L = Subspace(A, [A.basis_vector(4), A.basis_vector(3)])
    N = lvl.one_plus(lvl.radical_power(2))
    sigma = next(c for c in linear_characters(N) if not c.is_trivial())
    return SigmaData(lvl, 2, L, sigma)


# -- diagonal centraliser ------------------------------------------------------

def test_diag_centraliser_b2f3(b2_f3):
    A = b2_f3
    P = radical_subgroup(A)
    chars = linear_characters(P)
    nt = next(c for c in chars if not c.is_trivial())
    D_t = diag_centraliser(A, P, nt)
    assert D_t.dim == 1 and D_t.rows == ((1, 1, 0),)  # scalars diag(a, a)
    triv = next(c for c in chars if c.is_trivial())
    assert diag_centraliser(A, P, triv).dim == 2


def test_diag_centraliser_trivial_torus(b3_f2):
    # over F2 both unit groups are trivial, so the certified contract
    # (D_theta a subalgebra with (D_theta)^x = T_theta) holds even though
    # D_theta itself can be a proper subalgebra of D
    A = b3_f2
    P = radical_subgroup(A)
    for theta in linear_characters(P):
        sub = diag_centraliser(A, P, theta)
        assert sub.contains_one and sub.mult_closed
        assert units_of_subspace(A, sub.rows).order == 1  # = T_theta
        if theta.is_trivial():
            assert sub.dim == 3
    # nontrivial theta on the e12-direction: e11 fails theta(1+ad) = theta(1+da)
    nt = next(c for c in linear_characters(P)
              if c.exps[P.index[tuple((a + b) % 2 for a, b in zip(A.one, A.basis_vector(3)))]] != 0)
    assert diag_centraliser(A, P, nt).dim == 2


def test_diag_centraliser_certified(b3_f3, pattern3_f3):
    for A in (b3_f3, pattern3_f3):
        P = radical_subgroup(A)
        for theta in linear_characters(P):
            sub = diag_centraliser(A, P, theta)  # raises on any failure
            assert sub.contains_one and sub.mult_closed


@pytest.mark.parametrize("error, raised", [(TypeError, TypeError),
                                           (SpecError, CertificationFailure)])
def test_diag_centraliser_reports_only_a_failed_certificate(b2_f3, monkeypatch, error, raised):
    # a failed subalgebra certificate raises SpecError and is reported as a
    # certification failure; a programming error propagates as it is
    lvl = top_level(b2_f3)
    theta = linear_characters(lvl.P)[0]

    def broken(A, rows):
        raise error("broken")
    monkeypatch.setattr(brw.gutkin, "Subalgebra", broken)
    with pytest.raises(raised, match="broken"):
        brw.gutkin.diag_centraliser_level(lvl, lvl.radical, theta)


def test_top_level_is_the_algebra_itself():
    # the top level rebases nothing: its decomposition is the one cached on
    # A, and a second call returns the same Level
    for name in DEFAULT_CORPUS:
        A = fresh_corpus_algebra(name)
        lvl = top_level(A)
        assert lvl.dec is cached_decomposition(A)
        assert lvl.sub.owner is A and lvl.rows == tuple(A.basis_vector(i) for i in range(A.dim))
        assert top_level(A) is lvl


# -- J_sigma and phi_sigma -----------------------------------------------------

def test_j_sigma_b3f2(sigma_b3f2):
    js = j_sigma(sigma_b3f2)
    A = sigma_b3f2.level.ambient
    assert set(js.rows) == {A.basis_vector(3), A.basis_vector(4)}  # span{e12, e13}
    assert sigma_b3f2.level.radical.dim - js.dim == 1


def test_j_sigma_trivial(b3_f2):
    A = b3_f2
    lvl = top_level(A)
    L = Subspace(A, [A.basis_vector(4), A.basis_vector(3)])
    N = lvl.one_plus(lvl.radical_power(2))
    triv = next(c for c in linear_characters(N) if c.is_trivial())
    S = SigmaData(lvl, 2, L, triv)
    assert j_sigma(S).dim == lvl.radical.dim


def test_j_sigma_certificates(sigma_b3f2, sigma_b3f3):
    for S in (sigma_b3f2, sigma_b3f3):
        js = j_sigma(S)
        lvl = S.level
        A = lvl.ambient
        Jsq = lvl.radical_power(2)
        assert all(js.contains(v) for v in Jsq.rows)
        assert lvl.radical.dim - js.dim <= 1
        # kernel identity: phi_sigma(1+a) trivial exactly when a in J_sigma
        for a in lvl.radical.vectors():
            g = tuple((x + y) % A.p for x, y in zip(A.one, a))
            assert phi_sigma(S, g).is_trivial() == js.contains(a)


def test_j_sigma_certifies_that_commutators_lie_in_n(b4_f2):
    # Q widened to all of P, which is not inside 1 + J^(n-1): some commutator
    # of generators of P and Q lies outside N = 1 + J^n
    lvl = top_level(b4_f2)
    N = lvl.one_plus(lvl.radical_power(3))
    sigma = next(c for c in linear_characters(N) if not c.is_trivial())
    S = SigmaData(lvl, 3, _one_dim_ideal_steps(lvl, 3)[0], sigma)
    S.Q = lvl.P
    with pytest.raises(CertificationFailure):
        j_sigma(S)
    # the one commutator routine refuses such a pair: [1 + e12, 1 + e23] =
    # 1 + e13 lies in 1 + J^2, not in N = 1 + J^3; phi_sigma reads it too
    A = b4_f2
    e12, e23 = A.basis_vector(4), A.basis_vector(7)
    with pytest.raises(CertificationFailure, match=r"\[P, Q\] is not contained in N"):
        S.commutator_value(e12, e23)
    with pytest.raises(CertificationFailure, match=r"\[P, Q\] is not contained in N"):
        phi_sigma(S, tuple((a + b) % 2 for a, b in zip(A.one, e12)))


def _invariant_sigma_setups(A):
    """SigmaData at A's top level for every n >= 2 with J^n < J^(n-1), every
    step ideal L and every P-invariant sigma on N = 1 + J^n."""
    lvl, out, n = top_level(A), [], 2
    while lvl.radical_power(n - 1).dim > lvl.radical_power(n).dim:
        N = lvl.one_plus(lvl.radical_power(n))
        sigmas = [s for s in linear_characters(N) if s.is_invariant(lvl.P)]
        out += [SigmaData(lvl, n, L, s) for L in _one_dim_ideal_steps(lvl, n) for s in sigmas]
        n += 1
    return out


def test_j_sigma_against_the_oracle_for_every_invariant_sigma():
    # all pairs (a in J, u in L) through commutator_value, on sigma that no
    # descent need meet: the top level of each corpus algebra and of b3_f5,
    # and b3_f2 and b4_f2 in a dense basis
    corpus = [S for name in DEFAULT_CORPUS + ("b3_f5",)
              for S in _invariant_sigma_setups(corpus_algebra(name))]
    dense = [S for name in ("b3_f2", "b4_f2")
             for S in _invariant_sigma_setups(rebased(fresh_corpus_algebra(name),
                                                      random.Random(1)))]
    assert len(corpus) == 49
    for S in corpus + dense:
        assert j_sigma(S).rows == j_sigma_oracle(S)


def test_j_sigma_work_is_bounded_by_generators_not_by_p(monkeypatch):
    # every invariant sigma at b5_f2's top level, |P| = 1024: J_sigma is
    # read off (dim J + |gens(1 + J^2)|) |gens Q| commutators at most, and
    # its one Subspace is built from at most dim J rows
    setups = _invariant_sigma_setups(borel_algebra(2, 5))
    lvl = setups[0].level
    J, squares = lvl.radical, lvl.one_plus(lvl.radical_power(2))
    calls, built = [], []
    real_value, real_subspace = SigmaData.commutator_value, brw.gutkin.Subspace
    monkeypatch.setattr(SigmaData, "commutator_value",
                        lambda S, x, u: calls.append(1) or real_value(S, x, u))
    monkeypatch.setattr(brw.gutkin, "Subspace",
                        lambda A, rows: built.append(len(rows)) or real_subspace(A, rows))
    codims = set()
    for S in setups:
        calls.clear()
        built.clear()
        codims.add(J.dim - j_sigma(S).dim)
        bound = (J.dim + len(squares.generators())) * len(S.Q.generators())
        assert len(calls) <= bound < lvl.P.order // 8
        assert len(built) == 1 and built[0] <= J.dim
    assert len(setups) == 49 and codims == {0, 1}


def test_j_sigma_certificate_survives_optimized_mode():
    # the same mutation as above, under python -O, where asserts are stripped
    out = run_optimized("""
        from brw.algebra import borel_algebra
        from brw.errors import CertificationFailure
        from brw.groups import linear_characters
        from brw.gutkin import SigmaData, _one_dim_ideal_steps, j_sigma, top_level
        lvl = top_level(borel_algebra(2, 4))
        N = lvl.one_plus(lvl.radical_power(3))
        sigma = next(c for c in linear_characters(N) if not c.is_trivial())
        S = SigmaData(lvl, 3, _one_dim_ideal_steps(lvl, 3)[0], sigma)
        S.Q = lvl.P
        try:
            j_sigma(S)
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_scalar_relation_dagger_exhaustive(sigma_b3f3):
    # sigma([1 + c a, 1 + u]) = sigma([1 + a, 1 + c u]) for all scalars c
    S = sigma_b3f3
    A = S.level.ambient
    for a in S.level.radical.vectors():
        for u in S.L.vectors():
            for c in range(A.p):
                ca = tuple((c * x) % A.p for x in a)
                cu = tuple((c * x) % A.p for x in u)
                assert S.commutator_value(ca, u) == S.commutator_value(a, cu)


def test_phi_sigma_homomorphism_exhaustive(sigma_b3f2):
    S = sigma_b3f2
    A = S.level.ambient
    P = S.level.P
    table = {g: phi_sigma(S, g).exps for g in P.elements}
    for g in P.elements:
        for h in P.elements:
            gh = A.mul(g, h)
            combined = tuple((x + y) % S.sigma.m for x, y in zip(table[g], table[h]))
            assert table[gh] == combined
    image = set(table.values())
    js = j_sigma(S)
    assert len(image) == P.order // (A.p ** js.dim)


def test_phi_sigma_requires_invariance(b4_f2):
    # sigma not trivial on [P, N] (here: nontrivial on the e14-coordinate of
    # J^2) is not P-invariant and is rejected at SigmaData construction
    A = b4_f2
    lvl = top_level(A)
    Jsq = lvl.radical_power(2)
    N = lvl.one_plus(Jsq)
    bad = [c for c in linear_characters(N)
           if any(c.conj_by(lvl.P, lvl.P.index[g]).exps != c.exps
                  for g in lvl.P.generators())]
    assert bad, "expected a non-P-invariant character of 1 + J^2"
    L = Subspace(A, Jsq.rows + (A.basis_vector(4),))
    with pytest.raises(NotInvariant):
        SigmaData(lvl, 2, L, bad[0])


# -- Lemma "ideal": randomized intermediate ideals ----------------------------

def _lemma_ideal_setups(A, n):
    """(level, step ideals L, intermediate-ideal pieces, G-invariant sigmas)."""
    lvl = top_level(A)
    dec = basic_decomposition(A)
    Jn = lvl.radical_power(n)
    Jn1 = lvl.radical_power(n - 1)
    comp = bimodule_complement(dec.diagonal, Subspace(A, Jn1.rows), Subspace(A, Jn.rows))
    step_vecs = [v for _, _, c in bimodule_decompose(dec.diagonal, comp) for v in c.rows]
    Jsq = lvl.radical_power(2)
    top_comp = bimodule_complement(dec.diagonal, Subspace(A, lvl.radical.rows),
                                   Subspace(A, Jsq.rows))
    top_pieces = [v for _, _, c in bimodule_decompose(dec.diagonal, top_comp) for v in c.rows]
    N = lvl.one_plus(Jn)
    G = lvl.units
    gen_ids = [G.index[g] for g in G.generators()]
    sigmas = [ch for ch in linear_characters(N)
              if all(ch.conj_by(G, g).exps == ch.exps for g in gen_ids)]
    return lvl, step_vecs, top_pieces, sigmas


def test_ideal_intersection_randomized():
    # randomized instances from the domain where the lemma is a theorem:
    # p >= 3 (any G-invariant sigma), and trivial sigma at p = 2; the p = 2
    # boundary with nontrivial sigma is pinned separately below
    rng = random.Random(41)
    cases = 0
    for A, n in [(borel_algebra(3, 3), 2), (pattern_algebra(3, 3, [(1, 2), (1, 3)]), 2),
                 (borel_algebra(2, 4), 3), (borel_algebra(2, 4), 2),
                 (borel_algebra(2, 3), 2)]:
        lvl, step_vecs, top_pieces, sigmas = _lemma_ideal_setups(A, n)
        if A.p == 2:
            sigmas = [s for s in sigmas if s.is_trivial()]
        assert sigmas
        Jsq = lvl.radical_power(2)
        for _ in range(8):
            v = rng.choice(step_vecs)
            L = Subspace(A, lvl.radical_power(n).rows + (v,))
            S = SigmaData(lvl, n, L, rng.choice(sigmas))
            subset = [w for w in top_pieces if rng.random() < 0.5]
            I = Subspace(A, Jsq.rows + tuple(subset))
            cases += 1
            assert ideal_intersection_test(lvl, I, S) is True
    assert cases >= 20


def test_lemma_ideal_fails_for_p2_nontrivial_sigma(b4_f2):
    # Pinned counterexample: over F2 the lemma's scaling argument is
    # unavailable and the statement genuinely fails. sigma is the G-invariant
    # character nontrivial on the e13- and e24-coordinates of J^2,
    # L = J^2 + <e23>, I = J: then J_sigma = {a : a12 = a34} contains
    # e12 + e34 but not e12, and e11 (e12+e34) = e12 escapes.
    A = b4_f2
    lvl = top_level(A)
    Jsq = lvl.radical_power(2)
    N = lvl.one_plus(Jsq)
    sigma = next(ch for ch in linear_characters(N)
                 if [ch.exps[N.index[tuple((a + b) % 2 for a, b in zip(A.one, A.basis_vector(i)))]]
                     == 0 for i in (5, 6, 8)] == [False, True, False])
    G = lvl.units
    assert all(sigma.conj_by(G, G.index[g]).exps == sigma.exps for g in G.generators())
    L = Subspace(A, Jsq.rows + (A.basis_vector(7),))
    S = SigmaData(lvl, 2, L, sigma)
    js = j_sigma(S)
    mixed = tuple((a + b) % 2 for a, b in zip(A.basis_vector(4), A.basis_vector(9)))
    assert js.contains(mixed) and not js.contains(A.basis_vector(4))
    assert ideal_intersection_test(lvl, lvl.radical, S) is False
    # here the maximal ideal contained in J_sigma is strictly smaller
    from helpers import largest_ideal_inside
    assert largest_ideal_inside(A, js).dim < js.dim


def test_ideal_intersection_requires_g_invariance(b3_f3):
    A = b3_f3
    lvl = top_level(A)
    L = Subspace(A, [A.basis_vector(4), A.basis_vector(3)])
    N = lvl.one_plus(lvl.radical_power(2))
    nt = next(c for c in linear_characters(N) if not c.is_trivial())
    S = SigmaData(lvl, 2, L, nt)  # P-invariant but not T-invariant over F3
    assert not S.is_g_invariant()
    with pytest.raises(PreconditionFailure):
        ideal_intersection_test(lvl, lvl.radical, S)


def test_ideal_intersection_trivial_cases(sigma_b3f2):
    S = sigma_b3f2
    lvl = S.level
    assert ideal_intersection_test(lvl, lvl.radical, S) is True
    assert ideal_intersection_test(lvl, lvl.radical_power(2), S) is True


# -- Proposition "extension" ---------------------------------------------------

def test_commutator_check_on_generator_pairs_against_all_pairs(sigma_b3f2, sigma_b3f3):
    # [Q,Q] <= ker sigma tested on pairs of generators against every pair,
    # for each P-invariant sigma on N, with Q = 1 + L and with Q = P
    verdicts = set()
    for S in (sigma_b3f2, sigma_b3f3):
        N, P = S.N, S.level.P
        for Q in (S.Q, P):
            for sigma in linear_characters(N):
                if not sigma.is_invariant(P):
                    continue
                cs = [N.index.get(Q.elements[Q.commutator_id(i, j)])
                      for i in range(Q.order) for j in range(Q.order)]
                every = None not in cs and all(sigma.exps[c] == 0 for c in cs)
                assert _kills_commutators(Q, N, sigma) == every
                verdicts.add(every)
    assert verdicts == {True, False}


def test_extend_character_b3f2(sigma_b3f2):
    ext = extend_character(sigma_b3f2)
    assert len(ext.extensions) == 2  # |Q/N| = p = 2
    assert ext.single_orbit is True
    assert ext.stabilizer_identity


def test_extend_character_b3f3(sigma_b3f3):
    ext = extend_character(sigma_b3f3)
    assert len(ext.extensions) == 3
    assert ext.single_orbit is True
    js = ext.j_sigma
    A = sigma_b3f3.level.ambient
    expected = {tuple((x + y) % A.p for x, y in zip(A.one, v)) for v in js.vectors()}
    for theta in ext.extensions:
        orb = char_orbit(sigma_b3f3.level.P, sigma_b3f3.Q, theta)
        assert set(orb.stabilizer.elements) == expected


def test_extend_character_certifies_the_stabilizer(sigma_b3f3, monkeypatch):
    # J_sigma != J here, so every P-stabilizer is proper; a J_sigma widened
    # to all of J names 1 + J = P, which no stabilizer equals
    assert j_sigma(sigma_b3f3).dim < sigma_b3f3.level.radical.dim
    monkeypatch.setattr(brw.gutkin, "j_sigma", lambda S: S.level.radical)
    with pytest.raises(CertificationFailure,
                       match=r"^P-stabilizer of an extension differs from 1 \+ J_sigma$"):
        extend_character(sigma_b3f3)


def test_extend_character_certifies_a_single_orbit(sigma_b3f3, monkeypatch):
    # orbits cut down to their base points, with their true stabilizers:
    # the p extensions no longer form one P-orbit
    real = brw.gutkin.char_orbit

    def base_only(G, Q, theta):
        return CharOrbit(theta, [theta], real(G, Q, theta).stabilizer)

    monkeypatch.setattr(brw.gutkin, "char_orbit", base_only)
    with pytest.raises(CertificationFailure,
                       match="^extensions do not form a single P-orbit$"):
        extend_character(sigma_b3f3)


def test_sigma_data_preconditions(b3_f3):
    # n = 2 on the upper triangular 3 x 3 matrices over F_3: J = <e12, e13,
    # e23>, J^2 = <e13>, and the step ideals are J^2 + <e12> and J^2 + <e23>
    A = b3_f3
    lvl = top_level(A)
    e12, e13, e23 = (A.basis_vector(i) for i in (3, 4, 5))
    assert lvl.radical_power(2).rows == (e13,)
    sigma = next(c for c in linear_characters(lvl.one_plus(lvl.radical_power(2)))
                 if not c.is_trivial())
    cases = [([e12], "J^n is not contained in L"),
             ([e13, A.one], "L is not contained in J^(n-1)"),
             ([e12, e13, e23], "L must have dimension dim J^n + 1"),
             ([e13, tuple((x + y) % A.p for x, y in zip(e12, e23))],
              "L is not an ideal of the algebra")]
    for rows, message in cases:
        with pytest.raises(PreconditionFailure, match=f"^{re.escape(message)}$"):
            SigmaData(lvl, 2, Subspace(A, rows), sigma)
    SigmaData(lvl, 2, Subspace(A, [e12, e13]), sigma)   # a step ideal passes


def test_sigma_data_takes_sigma_on_n_only(sigma_b3f2):
    # a character of P is not restricted to N = 1 + J^n: it is refused
    S = sigma_b3f2
    lam = next(c for c in linear_characters(S.level.P) if not c.is_trivial())
    with pytest.raises(PreconditionFailure, match=r"^sigma is not a character of N = 1 \+ J\^n$"):
        SigmaData(S.level, S.n, S.L, lam)


def test_gutkin_decompose_refuses_a_character_on_a_copy_of_g(b2_f3, b3_f2):
    # at odd p restrict refuses it, at p = 2 the Clifford step or the
    # witness's induction: no path moves chi onto the interned G
    for A in (b2_f3, b3_f2):
        G = unit_group(A)
        copy = FiniteGroup(A, G.elements)
        conj = conjugacy_classes(copy)
        for chi in char_table(G).irreducibles:
            with pytest.raises(GroupMismatch):
                gutkin_decompose(A, Character(copy, conj, chi.m, chi.rows))


def test_descents_at_p2_build_only_the_table_of_g(monkeypatch):
    # at p = 2 each level's P is its whole unit group, so Res_P chi = chi is
    # its own constituent and no level below the top needs a table
    real, built = brw.chars._char_table, []
    monkeypatch.setattr(brw.chars, "_char_table", lambda G: built.append(G) or real(G))
    A = fresh_corpus_algebra("b4_f2")
    for B in (A, rebased(A, random.Random(1))):
        built.clear()
        G = unit_group(B)
        for chi in char_table(G).irreducibles:
            assert gutkin_decompose(B, chi).induced_matches
        assert built == [G]


def test_char_orbit_on_sigma_step_against_all_of_G(sigma_b3f3):
    # Q = 1 + L for the step ideal L, under P and under the whole unit group
    S = sigma_b3f3
    for G in (S.level.P, S.level.units):
        assert_orbits_match_oracle(G, S.Q)


def test_extend_trivial_sigma(b3_f2):
    A = b3_f2
    lvl = top_level(A)
    L = Subspace(A, [A.basis_vector(4), A.basis_vector(3)])
    N = lvl.one_plus(lvl.radical_power(2))
    triv = next(c for c in linear_characters(N) if c.is_trivial())
    ext = extend_character(SigmaData(lvl, 2, L, triv))
    # p extensions, exactly the characters of Q trivial on N
    assert len(ext.extensions) == 2
    for theta in ext.extensions:
        assert all(theta.exps[ext.sigma_data.Q.index[v]] == 0 for v in N.elements)


# -- stabilizer subalgebra certification ---------------------------------------

def test_certify_stabilizer_zp(b2_f3):
    A = b2_f3
    G = unit_group(A)
    P = radical_subgroup(A)
    nt = next(c for c in linear_characters(P) if not c.is_trivial())
    stab = char_orbit(G, P, nt).stabilizer
    sub = certify_stabilizer_subalgebra(A, stab)
    assert sub.dim == 2 and sub.rows == ((1, 1, 0), (0, 0, 1))  # span{1, e12}
    assert set(units_of_subspace(A, sub.rows).elements) == set(stab.elements)


def test_certify_stabilizer_full_group(b2_f3):
    G = unit_group(b2_f3)
    sub = certify_stabilizer_subalgebra(b2_f3, G)
    assert sub.dim == b2_f3.dim


def test_certify_stabilizer_rejects_a_span_with_more_units(b2_f3):
    # <t> for t = 2 e11 + e22 has order 2 and spans the diagonal D, whose
    # unit group has 4 elements: no subalgebra has unit group <t>
    H = intern_group(b2_f3, [b2_f3.one, (2, 1, 0)])
    assert H.order == 2 and units_of_subspace(b2_f3, H.elements).order == 4
    with pytest.raises(CertificationFailure):
        certify_stabilizer_subalgebra(b2_f3, H)
    out = run_optimized("""
        from brw.corpus import corpus_algebra
        from brw.errors import CertificationFailure
        from brw.groups import intern_group
        from brw.gutkin import certify_stabilizer_subalgebra
        A = corpus_algebra("b2_f3")
        try:
            certify_stabilizer_subalgebra(A, intern_group(A, [A.one, (2, 1, 0)]))
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_certify_stabilizers_from_orbits(b3_f3, pattern3_f3):
    for A in (b3_f3, pattern3_f3):
        G = unit_group(A)
        Q = ideal_subgroup(A, radical_power(A, 2))
        for theta in linear_characters(Q):
            stab = char_orbit(G, Q, theta).stabilizer
            sub = certify_stabilizer_subalgebra(A, stab)
            assert set(units_of_subspace(A, sub.rows).elements) == set(stab.elements)
            assert sub.dim < A.dim or stab.order == G.order


def test_stabilizer_span_from_generators_against_all_elements(monkeypatch):
    # certify_stabilizer_subalgebra closes span{1} under G_theta's generators;
    # on every stabilizer a corpus run certifies, and on those of three specs
    # in a dense basis (where 1 need not lead with a 1), its rows are the
    # echelon form of all of G_theta's elements
    certified = []
    real = brw.gutkin.certify_stabilizer_subalgebra
    monkeypatch.setattr(brw.gutkin, "certify_stabilizer_subalgebra",
                        lambda A, G_theta: certified.append((A, G_theta, real(A, G_theta)))
                        or certified[-1][2])
    algebras = [fresh_corpus_algebra(name) for name in DEFAULT_CORPUS]
    algebras += [rebased(fresh_corpus_algebra(name), random.Random(1))
                 for name in ("b2_f5", "b3_f3", "pattern3_f3")]
    for A in algebras:
        for chi in char_table(unit_group(A)).irreducibles:
            gutkin_decompose(A, chi)
    assert len(certified) == 41 + 4 + 14 + 10
    for A, G_theta, sub in certified:
        assert sub.rows == rref(list(G_theta.elements), A.p)[0]


def test_level_on_a_certified_stabilizer_span_builds_no_vector(monkeypatch):
    # the certificate proves span(G_theta)^x = G_theta, so the Level on that
    # span takes G_theta as its unit group: no vector of the span is built
    A = fresh_corpus_algebra("b3_f3")
    G, P = unit_group(A), radical_subgroup(A)
    stabilizers = [orb.stabilizer for orb in char_orbits(G, P) if orb.stabilizer is not G]
    subs = [certify_stabilizer_subalgebra(A, S) for S in stabilizers]
    calls = []
    real = Subspace.vectors
    monkeypatch.setattr(Subspace, "vectors", lambda self: calls.append(1) or real(self))
    assert [get_level(sub).units for sub in subs] == stabilizers
    assert len(subs) > 1 and calls == []
def test_the_descent_and_the_brute_search_build_no_cyclotomic(monkeypatch):
    # characters stay per-class vectors end to end: the table, every descent
    # on b3_f3 and the brute search reduce vectors (exact.normal_form) where
    # they compare them, and build no Cyclotomic
    built = []
    real = Cyclotomic.__init__
    monkeypatch.setattr(Cyclotomic, "__init__", lambda self, *a: built.append(a) or real(self, *a))
    A = fresh_corpus_algebra("b3_f3")
    for chi in char_table(unit_group(A)).irreducibles:
        assert gutkin_decompose(A, chi).induced_matches
    assert verify_gutkin_brute(A, max_dim=A.dim).all_witnessed
    assert built == []


# -- the full decomposition ----------------------------------------------------

def test_gutkin_trivial_character(b2_f3):
    G = unit_group(b2_f3)
    triv = next(c for c in char_table(G).irreducibles
                if c.degree == 1 and all(v == 1 for v in values_of(c)))
    w = gutkin_decompose(b2_f3, triv)
    assert w.H.order == G.order and w.lam.is_trivial()
    assert w.steps[-1]["branch"] == "leaf"


def test_gutkin_requires_an_irreducible(b2_f3):
    # the sum of two linear characters has norm 2; also under python -O
    G = unit_group(b2_f3)
    a, b = (char_from_linear(c) for c in linear_characters(G)[:2])
    chi = character_of(G, a.conj, [x + y for x, y in zip(values_of(a), values_of(b))])
    with pytest.raises(PreconditionFailure):
        gutkin_decompose(b2_f3, chi)
    out = run_optimized("""
        from brw.algebra import borel_algebra
        from brw.chars import char_from_linear
        from brw.errors import PreconditionFailure
        from brw.groups import linear_characters, unit_group
        from brw.gutkin import gutkin_decompose
        from helpers import character_of, values_of
        A = borel_algebra(3, 2)
        G = unit_group(A)
        a, b = (char_from_linear(c) for c in linear_characters(G)[:2])
        chi = character_of(G, a.conj, [x + y for x, y in zip(values_of(a), values_of(b))])
        try:
            gutkin_decompose(A, chi)
        except PreconditionFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_constituent_of_the_restriction_to_p_is_certified(b2_f3, monkeypatch):
    # with no constituent of Res_P chi found in P's table the descent must
    # stop with DecompositionFailure, also under python -O
    chi = next(c for c in char_table(unit_group(b2_f3)).irreducibles if c.degree > 1)
    monkeypatch.setattr(brw.gutkin, "inner_product", lambda a, b: 1 if a is b else 0)
    with pytest.raises(DecompositionFailure):
        gutkin_decompose(b2_f3, chi)
    out = run_optimized("""
        import brw.gutkin
        from brw.algebra import borel_algebra
        from brw.chars import char_table
        from brw.errors import DecompositionFailure
        from brw.groups import unit_group
        A = borel_algebra(3, 2)
        chi = next(c for c in char_table(unit_group(A)).irreducibles if c.degree > 1)
        brw.gutkin.inner_product = lambda a, b: 1 if a is b else 0
        try:
            brw.gutkin.gutkin_decompose(A, chi)
        except DecompositionFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_gutkin_b2f3_degree2(b2_f3):
    G = unit_group(b2_f3)
    for chi in char_table(G).irreducibles:
        w = gutkin_decompose(b2_f3, chi)
        assert w.induced_matches
        if chi.degree == 2:
            assert w.H.order == 6 and len(w.subalgebra_rows) == 2
            assert not w.lam.restrict(radical_subgroup(b2_f3)).is_trivial()
            assert int(chi.degree) == G.order // w.H.order


def test_gutkin_u3f2_degree2(b3_f2):
    G = unit_group(b3_f2)
    chi = next(c for c in char_table(G).irreducibles if c.degree == 2)
    w = gutkin_decompose(b3_f2, chi)
    assert w.induced_matches
    assert w.H.order == 4 and len(w.subalgebra_rows) == 3
    # H = 1 + L for the chosen one-dimensional step ideal L
    assert all(v in w.H.index for v in w.H.elements)
    assert induce(G, w.H, char_from_linear(w.lam)) == chi


def test_gutkin_all_corpus_members(b2_f2, b2_f5, b3_f3, b4_f2, pattern3_f3):
    for A in (b2_f2, b2_f5, b3_f3, b4_f2, pattern3_f3):
        G = unit_group(A)
        for chi in char_table(G).irreducibles:
            w = gutkin_decompose(A, chi)
            assert w.induced_matches
            assert int(chi.degree) == G.order // w.H.order
            # dims strictly decrease along the chain
            dims = w.chain_dims
            assert dims == sorted(dims, reverse=True)
            assert len(set(dims)) == len(dims)


def test_lemma_linear1(b2_f3, b3_f3):
    # a G-invariant linear constituent on P occurs only under linear characters
    for A in (b2_f3, b3_f3):
        G = unit_group(A)
        P = radical_subgroup(A)
        for chi in char_table(G).irreducibles:
            res = restrict(G, P, chi)
            for theta in linear_characters(P):
                if inner_product(res, char_from_linear(theta)) != 0:
                    invariant = char_orbit(G, P, theta).stabilizer.order == G.order
                    if invariant and chi.degree != 1:
                        # theta invariant forces V one-dimensional
                        raise AssertionError("invariant linear constituent under nonlinear chi")


# -- brute-force verification --------------------------------------------------

def test_brute_b2f3(b2_f3):
    rep = verify_gutkin_brute(b2_f3)
    assert rep.all_witnessed
    assert len(rep.per_irr) == 6
    assert [e["degree"] for e in rep.per_irr] == [1, 1, 1, 1, 2, 2]


def test_brute_b3f2(b3_f2):
    rep = verify_gutkin_brute(b3_f2)
    assert rep.all_witnessed and len(rep.per_irr) == 5


def test_brute_diagonal(diag2_f3):
    rep = verify_gutkin_brute(diag2_f3)
    # abelian: every character is its own witness with B = A
    assert rep.all_witnessed
    for entry in rep.per_irr:
        assert entry["degree"] == 1
        assert entry["witness_count"] >= 1


def test_brute_linear_induction_against_class_functions(monkeypatch):
    # every (H, lambda) the brute search decides, once per unit group H: the
    # decision is the first target of degree [G:H] equal to Ind lambda, with
    # lambda induced as a class function of H; the class sums of lambda's
    # exponent counts (induced_linear) give the same values, conductors
    # included; and H is built only when [G:H] is a degree
    decided, built = [], []
    real_decisions, real_units = brw.gutkin._decisions, brw.gutkin.units_of_subspace

    def recording_decisions(G, H, targets):
        out = real_decisions(G, H, targets)
        decided.append((G, H, out))
        return out

    def recording_units(A, rows):
        H = real_units(A, rows)
        built.append(H)
        return H

    monkeypatch.setattr(brw.gutkin, "_decisions", recording_decisions)
    monkeypatch.setattr(brw.gutkin, "units_of_subspace", recording_units)
    count = 0
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        built.clear()
        decided.clear()
        rep = verify_gutkin_brute(corpus_algebra(name))
        assert built and all(rep.group.order // H.order in rep.table.degrees for H in built)
        assert len({id(H) for _, H, _ in decided}) == len(decided) == len({id(H) for H in built})
        for G, H, out in decided:
            targets = [(i, chi) for i, chi in enumerate(rep.table.irreducibles)
                       if chi.degree == G.order // H.order]
            expected = []
            conj = conjugacy_classes(G)
            lams = linear_characters(H)
            for lam, sums in zip(lams, induced_linear(G, H, lams)):
                want = induce(G, H, char_from_linear(lam))
                i = next((j for j, chi in targets if want == chi), None)
                if i is not None:
                    expected.append((lam.exps, i))
                got = Character(G, conj, lam.m, [
                    tuple((e, Fraction(x * G.order, size * H.order)) for e, x in s)
                    for s, size in zip(sums, conj.sizes)])
                assert [(v.m, v.coeffs) for v in values_of(got)] == \
                    [(v.m, v.coeffs) for v in values_of(want)]
            assert [(lam.exps, i) for lam, i in out] == expected
            count += len(linear_characters(H))
    assert count == 110   # one decision per (H, lambda), not one per (B, lambda)


def test_verify_decides_every_linear_character_of_h_as_the_oracle_does():
    # a constructive witness with its lambda replaced by any linear lambda' of
    # its H verifies exactly when the Character oracle has Ind lambda' = chi,
    # so verify refuses a wrong lambda as well as it accepts the right one
    decided = {True: 0, False: 0}
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        G = unit_group(A)
        for chi in char_table(G).irreducibles:
            w = gutkin_decompose(A, chi)
            for lam in linear_characters(w.H):
                other = GutkinWitness(G, chi, w.steps, w.subalgebra, w.H, lam)
                expected = induce(G, w.H, char_from_linear(lam)) == chi
                assert other.verify() is expected is other.induced_matches, name
                decided[expected] += 1
    assert decided[True] and decided[False]


def test_a_wrong_lambda_fails_the_decomposition_and_the_cli(monkeypatch, tmp_path, capsys):
    # a leaf that returns another linear character of its group than chi is
    # refused by verify: gutkin_decompose raises and brw gutkin exits 4
    real = brw.gutkin.linear_char_from_character

    def wrong(chi):
        lam = real(chi)
        return next(x for x in linear_characters(lam.domain) if x != lam)
    monkeypatch.setattr(brw.gutkin, "linear_char_from_character", wrong)
    message = "induced character does not match the target"
    A = corpus_algebra("b2_f3")
    chi = next(c for c in char_table(unit_group(A)).irreducibles if c.degree == 1)
    with pytest.raises(DecompositionFailure, match=f"^{message}$"):
        gutkin_decompose(A, chi)
    assert main(["gutkin", "b2_f3", "--mode", "constructive", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"verification failure: {message}\n"


def _scanned_corpus():
    return [corpus_algebra(n) for n in DEFAULT_CORPUS
            if corpus_algebra(n).dim <= DEFAULT_DIM_BOUND[corpus_algebra(n).p]]


def test_brute_candidates_equal_the_filtered_lattice(monkeypatch):
    # the walk above the radical seeds finds, in the same order, exactly the
    # subalgebras of the whole lattice whose index is a degree: on every
    # scanned corpus spec, three dense bases, and b3_f3 at a raised bound
    rng = random.Random(11)
    cases = [(A, None) for A in _scanned_corpus()]
    cases += [(rebased(corpus_algebra(n), rng), None) for n in ("b2_f5", "b3_f2", "pattern3_f3")]
    cases.append((corpus_algebra("b3_f3"), 6))
    walked = []
    real_walk = brw.gutkin.enumerate_subalgebras

    def recording_walk(A, **kwargs):
        walked.append(real_walk(A, **kwargs))
        return walked[-1]
    monkeypatch.setattr(brw.gutkin, "enumerate_subalgebras", recording_walk)
    for A, max_dim in cases:
        G = unit_group(A)
        degrees = char_table(G).degrees
        got = [(B.rows, index) for B, index in brute_candidates(A, G, degrees, max_dim=max_dim)]
        want = [(B.rows, G.order // unit_order(A, B.rows))
                for B in enumerate_subalgebras(A, max_dim=max_dim)]
        assert got == [(rows, index) for rows, index in want if index in degrees]
    # the corpus walk: 88 subalgebras above the seeds, of 319 in the lattices
    assert sum(len(w) for w in walked[:len(_scanned_corpus())]) == 88


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_radical_seeds_are_the_subspaces_of_codimension_c(b4_f2, c):
    # b4_f2: dim J = 6 over F_2; the seeds are the distinct subspaces of J of
    # dimension 6 - c, as many as the echelon c x 6 matrices of rank c
    J = top_level(b4_f2).radical
    spans = [Subspace(b4_f2, W) for W in _radical_seeds(J, c)]
    assert all(S.dim == J.dim - c and all(J.contains(v) for v in S.rows) for S in spans)
    assert len({S.rows for S in spans}) == len(spans) == len(list(echelon_subspaces(2, 6, c)))


def test_brute_and_constructive_agree(b2_f3, b3_f2):
    # the constructive witness appears among the brute-force witnesses:
    # both induce the same irreducible with a subalgebra of the same dim
    for A in (b2_f3, b3_f2):
        G = unit_group(A)
        tab = char_table(G)
        rep = verify_gutkin_brute(A)
        for i, chi in enumerate(tab.irreducibles):
            w = gutkin_decompose(A, chi)
            assert w.induced_matches
            assert rep.per_irr[i]["witness_count"] > 0
            B = Subalgebra(A, w.subalgebra_rows)
            H = units_of_subspace(A, B.rows)
            assert induce(G, H, char_from_linear(w.lam)) == chi


# -- property tests: other bases and other algebras --------------------------

class CliffordSteps:
    """Records every Clifford step, every chosen step ideal, every J_sigma and
    every subspace whose units are built or counted in the gutkin_decompose
    calls made while installed, and checks each against the oracles of
    helpers: the table scan for eta, all pairs for L_i and for J_sigma, the
    enumerated units of the span, and the edges of the Schreier tree of every
    group on the way (unit groups, P, Q and stabilizers)."""

    def __init__(self, monkeypatch):
        self.cliffords, self.chosen, self.sigmas, self.units = [], [], {}, set()
        self.counts = [0, 0, 0, 0]
        real_cc = brw.gutkin.clifford_correspondent
        real_ext = brw.gutkin.extend_character
        real_js = brw.gutkin.j_sigma
        real_units = brw.gutkin.units_of_subspace
        real_order = brw.gutkin.unit_order

        def clifford(G, Q, theta, chi, orbit=None):
            eta, S = real_cc(G, Q, theta, chi, orbit=orbit)
            self.cliffords.append((G, Q, theta, chi, eta, S))
            return eta, S

        def extend(S):
            self.chosen.append(S)
            return real_ext(S)

        def jsig(S):
            js = real_js(S)
            self.sigmas[id(S)] = (S, js)
            return js

        def units(A, rows):
            self.units.add((A, tuple(rows)))
            return real_units(A, rows)

        def order(A, rows):
            self.units.add((A, tuple(rows)))
            return real_order(A, rows)

        monkeypatch.setattr(brw.gutkin, "clifford_correspondent", clifford)
        monkeypatch.setattr(brw.gutkin, "units_of_subspace", units)
        monkeypatch.setattr(brw.gutkin, "unit_order", order)
        monkeypatch.setattr(brw.gutkin, "extend_character", extend)
        monkeypatch.setattr(brw.gutkin, "j_sigma", jsig)

    def check(self):
        for G, Q, theta, chi, eta, S in self.cliffords:
            eta_o, S_o = clifford_oracle(G, Q, theta, chi)
            assert S is S_o and eta == eta_o
            for K in (G, Q, S):
                assert_schreier_tree(K)
        for S, js in self.sigmas.values():
            assert js.rows == j_sigma_oracle(S)
            assert_schreier_tree(S.level.P)
        for S in self.chosen:
            L = nondegenerate_step_oracle(S.level, S.n, S.sigma)
            assert L is not None and L.rows == S.L.rows
        for A, rows in self.units:
            assert_units_match_oracle(A, rows)
        self.counts[0] += len(self.cliffords)
        self.counts[1] += len(self.chosen)
        self.counts[2] += len(self.sigmas)
        self.counts[3] += len(self.units)
        self.cliffords.clear()
        self.chosen.clear()
        self.sigmas.clear()
        self.units.clear()


def witness_degrees(A, steps):
    """Sorted degrees of the irreducibles of A^x, each with a verified witness
    whose lambda is written at the exponent of H; every Clifford step and
    chosen step ideal on the way is checked against its oracle."""
    G = unit_group(A)
    tab = char_table(G)
    assert sum(d * d for d in tab.degrees) == G.order
    for chi in tab.irreducibles:
        w = gutkin_decompose(A, chi)
        assert w.induced_matches and int(chi.degree) == G.order // w.H.order
        assert w.lam.m == group_exponent(w.H)
    steps.check()
    return sorted(tab.degrees)


def test_clifford_steps_match_oracles_on_the_corpus(monkeypatch):
    steps = CliffordSteps(monkeypatch)
    for name in DEFAULT_CORPUS:
        witness_degrees(fresh_corpus_algebra(name), steps)
    # fresh algebras: no Level or unit group built by an earlier test is reused
    assert steps.counts == [41, 15, 17, 25]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gutkin_in_random_bases(seed, monkeypatch):
    rng = random.Random(seed)
    steps = CliffordSteps(monkeypatch)
    for name in ("b2_f3", "b3_f2", "pattern3_f3", "pattern4_f2", "b2_f5"):
        A = corpus_algebra(name)
        assert witness_degrees(rebased(A, rng), steps) == sorted(char_table(unit_group(A)).degrees)
    assert all(steps.counts)


def test_gutkin_on_the_subalgebra_corpus(monkeypatch):
    # every subalgebra of four corpus algebras, as an algebra in its own basis
    count = 0
    steps = CliffordSteps(monkeypatch)
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        A = corpus_algebra(name)
        for B in enumerate_subalgebras(A):
            witness_degrees(subalgebra_algebra(B), steps)
            count += 1
    assert count == 266
    assert all(steps.counts)


def test_levels_on_their_rows_match_the_subalgebra_algebra():
    # a level is decomposed on its subalgebra's rows in A; the oracle is the
    # top level of the subalgebra as an Algebra in its own basis, each row
    # mapped into A along B's rows and re-echeloned
    subs = []
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        subs += enumerate_subalgebras(corpus_algebra(name))
    assert len(subs) == 266
    for seed in (1, 2):
        subs += enumerate_subalgebras(rebased(corpus_algebra("b3_f2"), random.Random(seed)))
    deep = 0
    for B in subs:
        A, lvl, ref = B.owner, get_level(B), top_level(subalgebra_algebra(B))

        def image(rows):
            return rref([A.combine(x, B.rows) for x in rows], A.p)[0]

        assert lvl.dec.idempotents == tuple(A.combine(e, B.rows) for e in ref.dec.idempotents)
        assert lvl.dec.diagonal.rows == image(ref.dec.diagonal.rows)
        assert lvl.radical.rows == image(ref.radical.rows)
        n = 2
        while ref.radical_power(n - 1).dim:
            assert lvl.radical_power(n).rows == image(ref.radical_power(n).rows)
            assert ([L.rows for L in _one_dim_ideal_steps(lvl, n)]
                    == [image(L.rows) for L in _one_dim_ideal_steps(ref, n)])
            deep += n > 2
            n += 1
    assert deep


def test_radical_powers_against_all_products():
    rng = random.Random(7)
    levels, deep = 0, 0
    for name in ("b2_f5", "b3_f2", "b3_f3", "pattern3_f3", "pattern4_f2"):
        A = rebased(corpus_algebra(name), rng)
        whole = [A.basis_vector(i) for i in range(A.dim)]
        n = 1
        while True:
            want = radical_power_oracle(A, whole, n)
            assert radical_power(A, n).rows == want
            assert top_level(A).radical_power(n).rows == want
            if not want:
                break
            n += 1
        if name == "b3_f3":
            continue   # above the subalgebra scan bound for p = 3
        for B in enumerate_subalgebras(A):
            if A.dim - 2 <= B.dim < A.dim:
                level = get_level(B)
                for n in range(1, 4):
                    assert level.radical_power(n).rows == radical_power_oracle(A, B.rows, n)
                levels += 1
                deep += level.radical_power(2).dim > 0
    assert (levels, deep) == (119, 4)   # basis-independent counts
