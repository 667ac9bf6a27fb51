import random

import pytest

import brw.gutkin
from brw.algebra import (DEFAULT_DIM_BOUND, BasicDecomposition, Subspace, borel_algebra, cached_decomposition,
                         enumerate_subalgebras, radical,
                         radical_power)
from brw.corpus import DEFAULT_CORPUS, corpus_algebra
from brw.errors import (CertificationFailure, NotInsideRadical, NotNormal,
                        TooLarge)
from brw.groups import (FiniteGroup, abelian_invariants, abelianization,
                        center, char_orbit, char_orbits, check_normal,
                        commutator_subgroup, conjugacy_classes, ideal_subgroup,
                        linear_characters, one_plus, radical_subgroup, right_action,
                        set_product, torus_subgroup, unit_group,
                        units_of_subspace)
from brw.gutkin import diag_centraliser_level, top_level, verify_gutkin_brute
from helpers import (abelianization_oracle, assert_orbits_match_oracle,
                     assert_schreier_tree, assert_tables_against_mul,
                     assert_units_match_oracle, brute_char_orbit,
                     brute_conj_partition, commutator_subgroup_oracle, diagonal_algebra,
                     fresh_corpus_algebra, mul_ids, orbit_count_P_dual,
                     rebased, run_optimized, subalgebra_algebra, torus_factorization)


def test_one_plus_and_span_units_are_found_by_their_rows(monkeypatch):
    # a second 1 + U on an equal subspace (another Subspace object) and a
    # second unit group of the same rows are the groups built first, found
    # before any vector of the subspace is built
    A = fresh_corpus_algebra("b3_f3")
    J = cached_decomposition(A).radical
    P = one_plus(A, J)
    G = unit_group(A)
    calls = []
    real = Subspace.vectors
    monkeypatch.setattr(Subspace, "vectors", lambda self: calls.append(1) or real(self))
    assert one_plus(A, Subspace(A, list(reversed(J.rows)))) is P
    assert units_of_subspace(A, [A.basis_vector(i) for i in range(A.dim)]) is G
    assert calls == []
    assert P.order == A.p ** J.dim and P.elements == radical_subgroup(A).elements


def test_unit_group_orders(b2_f3, b3_f2):
    assert unit_group(b2_f3).order == 12
    assert unit_group(b3_f2).order == 8
    assert unit_group(diagonal_algebra(5, 1)).order == 4


def test_unit_group_order_formula(b2_f2, b2_f5, b3_f3, b4_f2, pattern3_f3):
    for A in (b2_f2, b2_f5, b3_f3, b4_f2, pattern3_f3):
        from brw.algebra import basic_decomposition
        dec = basic_decomposition(A)
        G = unit_group(A)
        assert G.order == (A.p - 1) ** dec.n * A.p ** dec.radical.dim


def test_group_closure(b2_f3):
    G = unit_group(b2_f3)
    elems = set(G.elements)
    for i in range(G.order):
        assert G.elements[G.inv_id(i)] in elems
        for j in range(G.order):
            assert G.elements[mul_ids(G, i, j)] in elems


def test_torus_factorization_unique(b2_f3, b3_f3):
    for A in (b2_f3, b3_f3):
        G = unit_group(A)
        T = set(torus_subgroup(A).elements)
        P = set(radical_subgroup(A).elements)
        for v in G.elements:
            t, x = torus_factorization(A, v)
            assert t in T and x in P
            assert A.mul(t, x) == v
        # uniqueness: |T| * |P| = |G|
        assert len(T) * len(P) == G.order


def test_ideal_subgroup_examples(b2_f3, b3_f2):
    P = ideal_subgroup(b2_f3, radical(b2_f3))
    assert P.order == 3
    Z = ideal_subgroup(b3_f2, radical_power(b3_f2, 3))
    assert Z.order == 1
    N = ideal_subgroup(b3_f2, radical_power(b3_f2, 2))
    assert N.order == 2


def test_ideal_subgroup_rejects_non_radical(b2_f3):
    D = Subspace(b2_f3, [b2_f3.basis_vector(0)])
    with pytest.raises(NotInsideRadical):
        ideal_subgroup(b2_f3, D)


def test_conjugacy_examples(b2_f3, b3_f2, diag2_f3):
    cd = conjugacy_classes(unit_group(b2_f3))
    assert cd.k == 6 and sorted(cd.sizes) == [1, 1, 2, 2, 3, 3]
    assert conjugacy_classes(unit_group(b3_f2)).k == 5
    GD = unit_group(diag2_f3)
    assert conjugacy_classes(GD).k == GD.order


def test_conjugacy_against_bruteforce(b2_f3, b3_f2, pattern3_f3):
    for A in (b2_f3, b3_f2, pattern3_f3):
        G = unit_group(A)
        cd = conjugacy_classes(G)
        ours = {frozenset(G.elements[i] for i in cls) for cls in cd.classes}
        assert ours == brute_conj_partition(G)
        assert sum(cd.sizes) == G.order
        for s in cd.sizes:
            assert G.order % s == 0
        # representatives are least ids, identity class first
        assert cd.classes[0][0] == G.identity
        for cls, rep in zip(cd.classes, cd.reps):
            assert rep == min(cls)


def test_conjugacy_cap():
    # unit_group checks the cap before any element is built: no group, and
    # so no classes, of a fresh algebra exist after a cap hit
    A = fresh_corpus_algebra("b2_f3")
    with pytest.raises(TooLarge, match="group order 12 exceeds cap 5"):
        unit_group(A, cap=5)
    assert A._groups == {}
    assert unit_group(A, cap=12).order == 12


def test_abelianization_examples(b2_f3, b3_f2):
    assert abelianization(unit_group(b3_f2))[0] == (2, 2)
    assert abelianization(unit_group(b2_f3))[0] == (2, 2)
    assert abelianization(unit_group(diagonal_algebra(5, 1)))[0] == (4,)


def test_abelianization_against_per_element_cosets(monkeypatch):
    # every corpus unit group, its P, and every H the brute search builds
    built = []
    real = brw.gutkin.units_of_subspace

    def units(A, rows):
        built.append(real(A, rows))
        return built[-1]

    monkeypatch.setattr(brw.gutkin, "units_of_subspace", units)
    groups = []
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        groups += [unit_group(A), top_level(A).P]
        if A.dim <= DEFAULT_DIM_BOUND[A.p]:
            verify_gutkin_brute(A)
    assert built
    for G in groups + built:
        assert abelianization(G) == abelianization_oracle(G)


def test_commutator_subgroup(b2_f3, b3_f2):
    G = unit_group(b2_f3)
    K = commutator_subgroup(G)
    assert set(K.elements) == set(radical_subgroup(b2_f3).elements)  # [G,G] = P
    G3 = unit_group(b3_f2)
    K3 = commutator_subgroup(G3)
    assert set(K3.elements) == set(center(G3).elements)  # Heisenberg: [G,G] = Z


def test_contains_group(b2_f3, monkeypatch):
    G, P = unit_group(b2_f3), radical_subgroup(b2_f3)
    assert G.contains_group(P) and not P.contains_group(G)
    assert G.contains_group(FiniteGroup(b2_f3, G.elements))    # equal, not the same object
    monkeypatch.setattr(G, "index", {})   # G itself is contained with no membership test
    assert G.contains_group(G)


def test_abelian_invariants_divisor_chain():
    rng = random.Random(3)
    for p, k in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        n = p ** k
        elems = [r for r in range(1, n) if r % p]
        divs, gens, dlog = abelian_invariants(elems, lambda a, b: a * b % n, 1)
        for a, b in zip(divs, divs[1:]):
            assert a % b == 0
        total = 1
        for d in divs:
            total *= d
        assert total == len(elems)
        # dlog really is a homomorphism table
        for _ in range(10):
            a, b = rng.choice(elems), rng.choice(elems)
            la, lb = dlog[a], dlog[b]
            lab = dlog[a * b % n]
            assert all((x + y) % d == z for x, y, z, d in zip(la, lb, lab, divs))


def test_linear_characters_examples(b2_f3, b3_f2):
    P = radical_subgroup(b2_f3)
    assert len(linear_characters(P)) == 3
    assert len(linear_characters(unit_group(b3_f2))) == 4
    assert len(linear_characters(unit_group(diagonal_algebra(2, 2)))) == 1


def test_linear_characters_are_kept_on_the_group(b3_f2):
    G = unit_group(b3_f2)
    assert linear_characters(G) is linear_characters(G)


def test_linear_characters_are_homomorphisms(b2_f3, b3_f2):
    for A in (b2_f3, b3_f2):
        H = unit_group(A)
        for ch in linear_characters(H):
            assert ch.exps[H.identity] == 0
            for i in range(H.order):
                ki = ch.exps[i]
                for j in range(H.order):
                    assert (ki + ch.exps[j]) % ch.m == ch.exps[mul_ids(H, i, j)]


def test_char_orbit_examples(b2_f3, b3_f2):
    G = unit_group(b2_f3)
    P = radical_subgroup(b2_f3)
    chars = linear_characters(P)
    nt = next(c for c in chars if not c.is_trivial())
    orb = char_orbit(G, P, nt)
    assert orb.size == 2 and orb.stabilizer.order == 6
    ZP = set_product(G, center(G), P)
    assert set(orb.stabilizer.elements) == set(ZP.elements)
    triv = next(c for c in chars if c.is_trivial())
    orb0 = char_orbit(G, P, triv)
    assert orb0.size == 1 and orb0.stabilizer.order == G.order
    # central ideal subgroup of U3(F2): singleton orbits
    G3 = unit_group(b3_f2)
    N = ideal_subgroup(b3_f2, radical_power(b3_f2, 2))
    nt3 = next(c for c in linear_characters(N) if not c.is_trivial())
    assert char_orbit(G3, N, nt3).size == 1


def test_orbit_stabilizer_identity(b3_f3, pattern3_f3):
    for A in (b3_f3, pattern3_f3):
        G = unit_group(A)
        P = radical_subgroup(A)
        for ch in linear_characters(P):
            orb = char_orbit(G, P, ch)
            assert orb.size * orb.stabilizer.order == G.order
            for member in orb.orbit:
                assert member.restrict(P).domain is P  # sanity: member lives on P


def test_char_orbit_requires_normal(b2_f3):
    G = unit_group(b2_f3)
    Z = center(G)
    T = torus_subgroup(b2_f3)
    ch = linear_characters(T)[0]
    with pytest.raises(NotNormal):
        char_orbit(G, T, ch)  # T is not normal in G
    with pytest.raises(NotNormal):
        char_orbit(G, T, ch)  # a failed normality check is not cached


def test_orbit_count_P_dual():
    assert orbit_count_P_dual(2) == 2
    assert orbit_count_P_dual(3) == 2
    assert orbit_count_P_dual(5) == 2


def test_units_of_subspace(b2_f3):
    H = units_of_subspace(b2_f3, [b2_f3.one, b2_f3.basis_vector(2)])
    assert H.order == 6  # ZP inside B2(F3)
    for v in H.elements:
        assert H.elements[H.inv_id(H.index[v])] in H.index


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_units_of_subspace_against_enumeration(seed):
    # every subalgebra of every corpus algebra within the scan bound, in the
    # monomial basis (seed 0) and in seeded random bases (seeds 1-3)
    rng = random.Random(seed)
    count = 0
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        if seed:
            A = rebased(A, rng)
        if A.dim > DEFAULT_DIM_BOUND[A.p]:
            continue
        for B in enumerate_subalgebras(A):
            assert_units_match_oracle(A, B.rows)
            count += 1
    assert count == 319   # the subalgebras that the brute search visits


def test_units_certificate_refuses_a_non_partition_image(monkeypatch):
    # torus_coeffs with its last coordinate negated: over F_3 the image of 1
    # becomes (1, 2), which no partition algebra contains
    A = borel_algebra(3, 2)
    rows = [A.one] + list(cached_decomposition(A).radical.rows)
    real = BasicDecomposition.torus_coeffs
    monkeypatch.setattr(BasicDecomposition, "torus_coeffs",
                        lambda self, v: list(real(self, v)[:-1]) + [-real(self, v)[-1] % 3])
    with pytest.raises(CertificationFailure):
        units_of_subspace(A, rows)


def test_units_certificate_survives_optimized_mode():
    # the same mutation as above, under python -O, where asserts are stripped
    out = run_optimized("""
        from brw.algebra import BasicDecomposition, borel_algebra, cached_decomposition
        from brw.errors import CertificationFailure
        from brw.groups import units_of_subspace
        real = BasicDecomposition.torus_coeffs

        def skewed(self, v):
            c = list(real(self, v))
            return c[:-1] + [-c[-1] % 3]

        BasicDecomposition.torus_coeffs = skewed
        A = borel_algebra(3, 2)
        try:
            units_of_subspace(A, [A.one] + list(cached_decomposition(A).radical.rows))
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_invertibility_criterion_against_exhaustive_search(b2_f3, pattern3_f3):
    # the diagonal-part criterion agrees with an exhaustive two-sided
    # inverse search over the whole algebra
    for A in (b2_f3, pattern3_f3):
        units = set(unit_group(A).elements)
        for v in A.elements():
            has_inv = any(A.mul(v, w) == A.one and A.mul(w, v) == A.one
                          for w in A.elements())
            assert has_inv == (v in units)


def test_char_orbit_against_all_of_G(b2_f3, b3_f2, pattern3_f3, b3_f3):
    for A in (b2_f3, b3_f2, pattern3_f3, b3_f3):
        assert_orbits_match_oracle(unit_group(A), radical_subgroup(A))


def test_char_orbit_against_all_of_G_rebased():
    # a corpus algebra in a seeded dense basis: radical and idempotents
    # off the coordinate axes
    A = rebased(corpus_algebra("pattern3_f3"), random.Random(11))
    assert any(x not in (0, 1) for plane in A.sc for row in plane for x in row)
    assert_orbits_match_oracle(unit_group(A), radical_subgroup(A))


def test_check_normal_builds_the_action_once(b3_f3):
    G = unit_group(b3_f3)
    P = radical_subgroup(b3_f3)
    perms = check_normal(G, P)
    assert check_normal(G, P) is perms
    assert len(perms) == len(G.generators())
    for g, perm in zip(G.generators(), perms):
        assert sorted(perm) == list(range(P.order))
        for ch in linear_characters(P):
            assert tuple(ch.exps[y] for y in perm) == ch.conj_by(G, G.index[g]).exps


def test_diag_centraliser_torus_stabilizer_against_conj_by(b2_f3, b2_f5, b3_f2, pattern3_f3):
    # T_theta as diag_centraliser_level reads it (the torus part of the
    # stabilizer from char_orbit) against conjugating all of Q by every t in T
    for A in (b2_f3, b2_f5, b3_f2, pattern3_f3):
        G, lvl, T = unit_group(A), top_level(A), torus_subgroup(A).elements
        for I in (radical(A), radical_power(A, 2)):
            Q = ideal_subgroup(A, I)
            for theta in linear_characters(Q):
                t_theta = {t for t in T if theta.conj_by(G, G.index[t]).exps == theta.exps}
                stab = char_orbit(G, Q, theta).stabilizer
                assert {t for t in T if t in stab.index} == t_theta
                sub = diag_centraliser_level(lvl, I, theta)
                assert set(units_of_subspace(A, sub.rows).elements) == t_theta


def test_char_orbits_partition_the_characters(b2_f3, b3_f2, b3_f3, pattern3_f3):
    # based at the least exponent table of each orbit, in increasing order,
    # every character in exactly one orbit, each orbit as by brute force
    for A in (b2_f3, b3_f2, b3_f3, pattern3_f3):
        G = unit_group(A)
        for Q in (radical_subgroup(A), ideal_subgroup(A, radical_power(A, 2))):
            orbits = char_orbits(G, Q)
            bases = [orb.base.exps for orb in orbits]
            assert bases == sorted(bases)
            assert all(orb.base.exps == min(m.exps for m in orb.orbit) for orb in orbits)
            members = sorted(m.exps for orb in orbits for m in orb.orbit)
            assert members == [ch.exps for ch in linear_characters(Q)]
            for orb in orbits:
                assert {m.exps for m in orb.orbit} == brute_char_orbit(G, orb.base)[0]


def test_char_orbit_certifies_the_generator_shortcut(monkeypatch):
    # the stabilizer is read off a Schreier tree on the generators of G; a
    # set that does not generate G must raise, not give a smaller stabilizer
    A = borel_algebra(3, 2)   # fresh, so no tree or action is cached yet
    G, P = unit_group(A), radical_subgroup(A)
    nt = next(c for c in linear_characters(P) if not c.is_trivial())
    monkeypatch.setattr(G, "generators", lambda: (A.one,))
    with pytest.raises(CertificationFailure):
        char_orbit(G, P, nt)


def test_certificate_survives_optimized_mode():
    # the same mutation as above, under python -O, where asserts are stripped
    out = run_optimized("""
        from brw.algebra import borel_algebra
        from brw.errors import CertificationFailure
        from brw.groups import char_orbit, linear_characters, radical_subgroup, unit_group
        A = borel_algebra(3, 2)
        G, P = unit_group(A), radical_subgroup(A)
        nt = next(c for c in linear_characters(P) if not c.is_trivial())
        G.generators = lambda: (A.one,)
        try:
            char_orbit(G, P, nt)
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_tree_tables_against_mul_on_the_corpus_and_brute_subgroups(monkeypatch):
    # every corpus unit group, its P and every H the brute search builds; the
    # subgroups of check_normal and right_action are P, the torus (not normal
    # once J != 0) and every such H inside G
    built = []
    real = brw.gutkin.units_of_subspace

    def units(A, rows):
        built.append(real(A, rows))
        return built[-1]

    monkeypatch.setattr(brw.gutkin, "units_of_subspace", units)
    count = 0
    for name in DEFAULT_CORPUS:
        A = fresh_corpus_algebra(name)
        G, P = unit_group(A), top_level(A).P
        del built[:]
        if A.dim <= DEFAULT_DIM_BOUND[A.p]:
            verify_gutkin_brute(A)
        assert_tables_against_mul(G, [P, torus_subgroup(A)] + built)
        for H in [P] + built:
            assert_tables_against_mul(H)
        count += len(built)
    assert count > 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_tables_and_classes_in_random_bases(seed):
    rng = random.Random(seed)
    for name in DEFAULT_CORPUS:
        A = rebased(corpus_algebra(name), rng)
        G, P = unit_group(A), radical_subgroup(A)
        assert_tables_against_mul(G, (P, torus_subgroup(A)))
        assert_tables_against_mul(P)
        cd = conjugacy_classes(G)
        assert {frozenset(G.elements[i] for i in c) for c in cd.classes} == brute_conj_partition(G)


def test_tree_tables_against_mul_on_the_subalgebra_corpus():
    count = 0
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        for B in enumerate_subalgebras(corpus_algebra(name)):
            A = subalgebra_algebra(B)
            G, P = unit_group(A), radical_subgroup(A)
            assert_tables_against_mul(G, (P, torus_subgroup(A)))
            assert_tables_against_mul(P)
            count += 1
    assert count == 266


def test_generators_make_one_product_per_element_and_generator(monkeypatch):
    # the growth multiplies every element by every generator exactly once and
    # records the tree as it goes; schreier_tree() then multiplies nothing
    for name in DEFAULT_CORPUS:
        A = fresh_corpus_algebra(name)
        groups = dict.fromkeys((unit_group(A), radical_subgroup(A)))   # G = P over F_2
        calls = []
        real = A.mul
        monkeypatch.setattr(A, "mul", lambda x, y: calls.append(1) or real(x, y))
        for K in groups:
            del calls[:]
            gens = K.generators()
            assert len(calls) == K.order * len(gens)
            K.schreier_tree()
            K.right_table()
            assert len(calls) == K.order * len(gens)
        monkeypatch.undo()
        for K in groups:
            assert_schreier_tree(K)


def test_generators_certify_closure(b2_f3):
    # {1, 1 + e12} over F_3 is not closed: (1 + e12)^2 = 1 + 2 e12
    with pytest.raises(CertificationFailure):
        FiniteGroup(b2_f3, [b2_f3.one, (1, 1, 1)]).generators()
    out = run_optimized("""
        from brw.corpus import corpus_algebra
        from brw.errors import CertificationFailure
        from brw.groups import FiniteGroup
        A = corpus_algebra("b2_f3")
        try:
            FiniteGroup(A, [A.one, (1, 1, 1)]).generators()
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_set_product_and_commutator_subgroup_tables():
    # groups grown on the ids of G: their element sets against products and
    # the oracle, and their own trees and tables against Algebra.mul
    for name in DEFAULT_CORPUS:
        for rng in (None, random.Random(5)):
            A = corpus_algebra(name) if rng is None else rebased(corpus_algebra(name), rng)
            G, P = unit_group(A), radical_subgroup(A)
            Z = center(G)
            ZP, K = set_product(G, Z, P), commutator_subgroup(G)
            assert set(ZP.elements) == {A.mul(z, x) for z in Z.elements for x in P.elements}
            assert set(K.elements) == commutator_subgroup_oracle(G)
            for H in (ZP, K):
                assert_schreier_tree(H)
                assert_tables_against_mul(H)


def test_tree_reads_make_no_products(monkeypatch):
    # after generators(), everything read off the tree is integer steps only
    A = fresh_corpus_algebra("b3_f3")
    G, P, T = unit_group(A), radical_subgroup(A), torus_subgroup(A)
    for K in (G, P, T):
        K.generators()
    calls = []
    real = A.mul
    monkeypatch.setattr(A, "mul", lambda x, y: calls.append(1) or real(x, y))
    G.schreier_tree()
    conjugacy_classes(G)
    G.inv_id(1)
    check_normal(G, P)
    with pytest.raises(NotNormal):
        check_normal(G, T)
    right_action(G, P)
    right_action(G, T)
    assert not calls
