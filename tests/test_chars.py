import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from brw.algebra import (Algebra, algebra_from_spec, borel_algebra, pattern_algebra,
                         radical_power)
import brw.chars
from brw.chars import (Character, CharTable, _charpoly, _class_matrix,
                       _orthonormal_at_split_prime, _root_of_order, _roots,
                       _split_prime, char_from_linear, char_table,
                       clifford_correspondent, induce, induced_linear, inner_product,
                       restrict)
from brw.corpus import DEFAULT_CORPUS, corpus_algebra
from brw.errors import (CertificationFailure, GroupMismatch, NotOverTheta,
                        NotSubgroup, TooLarge)
from brw.exact import Cyclotomic, is_prime, kernel_basis
from brw.groups import (DEFAULT_ORDER_CAP, FiniteGroup, LinearChar, center,
                        conjugacy_classes, ideal_subgroup, linear_characters,
                        radical_subgroup, set_product, torus_subgroup,
                        unit_group)
from brw.gutkin import gutkin_decompose, linear_char_from_character, top_level
from helpers import (Cyc, character_of, conjugate, constituents, lift_oracle, rebased,
                     regular_character, rows_orthonormal, run_optimized, trivial_character,
                     values_of, verify_oracle)


def test_char_table_degrees(b2_f3, b3_f2, diag2_f3):
    assert char_table(unit_group(b3_f2)).degrees == [1, 1, 1, 1, 2]
    assert char_table(unit_group(b2_f3)).degrees == [1, 1, 1, 1, 2, 2]
    tabD = char_table(unit_group(diag2_f3))
    assert tabD.degrees == [1, 1, 1, 1]
    # abelian: the table rows are exactly the linear characters
    GD = unit_group(diag2_f3)
    lins = {tuple(values_of(char_from_linear(ch))[k].key(tabD.conductor)
                  for k in range(tabD.conj.k)) for ch in linear_characters(GD)}
    rows = {tuple(v.key(tabD.conductor) for v in values_of(chi)) for chi in tabD.irreducibles}
    assert lins == rows


def test_char_table_axioms(b2_f3, b2_f5, b3_f2, b3_f3, b4_f2, pattern3_f3):
    for A in (b2_f3, b2_f5, b3_f2, b3_f3, b4_f2, pattern3_f3):
        G = unit_group(A)
        tab = char_table(G)
        assert len(tab.irreducibles) == tab.conj.k
        assert sum(d * d for d in tab.degrees) == G.order
        assert tab.verify()


def test_verify_catches_one_changed_value(b2_f5):
    # column orthogonality alone must reject a table with one value of a
    # nonlinear irreducible changed (degrees and shape unchanged)
    G = unit_group(b2_f5)
    tab = char_table(G)
    assert tab.verify()
    i = next(i for i, ch in enumerate(tab.irreducibles) if ch.degree > 1)
    for k in (1, tab.conj.k - 1):
        values = values_of(tab.irreducibles[i])
        values[k] = values[k] + 1
        irreducibles = list(tab.irreducibles)
        irreducibles[i] = character_of(G, tab.conj, values)
        assert not CharTable(G, tab.conj, irreducibles, tab.conductor).verify()


def count_certificates(monkeypatch):
    """A list that grows by one at each call of the table certificate."""
    calls = []
    real = brw.chars._orthonormal_at_split_prime
    monkeypatch.setattr(brw.chars, "_orthonormal_at_split_prime",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def test_each_table_is_certified_once(monkeypatch):
    calls = count_certificates(monkeypatch)
    G = unit_group(borel_algebra(3, 2))   # a fresh algebra: no table cached yet
    tab = char_table(G)
    assert calls == [1]
    assert tab.verify() and char_table(G).verify()
    assert calls == [1]
    # a table built by hand runs the certificate on its first verify, and only then
    hand = CharTable(G, tab.conj, tab.irreducibles, tab.conductor)
    assert hand.verify() and hand.verify()
    assert calls == [1, 1]


def test_verify_rejects_a_duplicated_row(b2_f5, monkeypatch):
    # one linear character in place of another keeps the shape and the degree
    # equation, so the certificate is what refuses it
    G = unit_group(b2_f5)
    tab = char_table(G)
    rows = list(tab.irreducibles)
    assert rows[0].degree == rows[1].degree == 1
    rows[1] = rows[0]
    calls = count_certificates(monkeypatch)
    assert not CharTable(G, tab.conj, rows, tab.conductor).verify()
    assert calls == [1]


def test_verify_sums_no_pair_over_the_group_ring(monkeypatch):
    calls = []
    real = brw.chars._hermitian_sum
    monkeypatch.setattr(brw.chars, "_hermitian_sum",
                        lambda *args: calls.append(1) or real(*args))
    G = unit_group(borel_algebra(5, 2))   # a fresh algebra: no table cached yet
    tab = char_table(G)
    assert CharTable(G, tab.conj, tab.irreducibles, tab.conductor).verify()
    assert calls == []


def table_of(spec, cap=DEFAULT_ORDER_CAP):
    return char_table(unit_group(algebra_from_spec(spec), cap=cap))


B2_F7 = {"p": 7, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}}
ROW4_F3 = {"p": 3, "pattern": {"n": 4, "closed_pairs": [[1, 2], [1, 3], [1, 4]]}}
B3_F5 = {"p": 5, "pattern": {"n": 3, "closed_pairs": [[1, 2], [1, 3], [2, 3]]}}


def test_certificate_prime_is_above_the_bound(monkeypatch):
    # l prime, l = 1 (mod m) and l > |G| (L^2 + 1), L the largest l1 norm of
    # a class vector, for the prime each certificate takes
    primes = []
    real = brw.chars._split_prime
    monkeypatch.setattr(brw.chars, "_split_prime",
                        lambda bound, m: primes.append((bound, m, real(bound, m))) or primes[-1][2])
    for spec in (B2_F7, ROW4_F3):
        tab = table_of(spec)
        hand = CharTable(tab.group, tab.conj, tab.irreducibles, tab.conductor)
        del primes[:]
        assert hand.verify()
        (_, m, l), = primes
        norm = max(sum(abs(c) for _, c in x)
                   for ch in tab.irreducibles for x in ch.vectors(tab.conductor))
        assert m == tab.conductor and is_prime(l) and l % m == 1
        assert l > tab.group.order * (norm * norm + 1)


def test_split_prime_and_root_of_order():
    # Dixon's l * l > 4 |G| is l > isqrt(4 |G|), and the root has order m
    for m in (1, 2, 6, 20, 42):
        for order in (1, 2, 12, 99, 100, 8000):
            l = _split_prime(isqrt(4 * order), m)
            assert l == next(q for q in range(m + 1, 10 ** 6, m)
                             if q * q > 4 * order and is_prime(q))
            w = _root_of_order(m, l)
            assert min(e for e in range(1, m + 1) if pow(w, e, l) == 1) == m


def certificate_agrees_with_oracle(tab, rows):
    """verify() of a table with these rows against verify_oracle."""
    hand = CharTable(tab.group, tab.conj, rows, tab.conductor)
    ok = hand.verify()
    assert ok == verify_oracle(hand), rows
    return ok


def with_vector(tab, i, k, vec):
    """Row i of tab with its class-k vector replaced by vec."""
    m, ch = tab.conductor, tab.irreducibles[i]
    vecs = list(ch.vectors(m))
    vecs[k] = tuple(sorted((e, c) for e, c in vec.items() if c))
    return Character(tab.group, tab.conj, m, vecs)


def mutations(tab, rng):
    """Tables one step from tab, none of them a character table: one class
    vector changed, a row dropped, a row duplicated, and one eigenvalue
    multiplicity moved to the next root of unity (off the identity class,
    so that degrees stay rational)."""
    rows, m = list(tab.irreducibles), tab.conductor
    i, k, e = rng.randrange(len(rows)), rng.randrange(1, tab.conj.k), rng.randrange(m)
    vec = dict(rows[i].vectors(m)[k])
    vec[e] = vec.get(e, 0) + rng.choice((-1, 1))
    yield rows[:i] + [with_vector(tab, i, k, vec)] + rows[i + 1:]
    yield rows[:i] + rows[i + 1:]
    j = (i + rng.randrange(1, len(rows))) % len(rows)
    yield rows[:j] + [rows[i]] + rows[j + 1:]
    if m > 1:
        vec = dict(rows[i].vectors(m)[k])
        e = rng.choice(sorted(vec))
        vec[e] -= 1
        vec[(e + 1) % m] = vec.get((e + 1) % m, 0) + 1
        yield rows[:i] + [with_vector(tab, i, k, vec)] + rows[i + 1:]


def test_certificate_agrees_with_the_oracle(b2_f3, b2_f5, b3_f2, b3_f3, b4_f2, pattern3_f3):
    rng = random.Random(17)
    tables = [char_table(unit_group(corpus_algebra(name))) for name in DEFAULT_CORPUS]
    tables = [tab for tab in tables if tab.conj.k > 1]   # mutations need a second class
    tables += [table_of(B2_F7), table_of(ROW4_F3)]
    tables += [char_table(unit_group(rebased(A, random.Random(seed))))
               for seed, A in enumerate((b2_f5, b3_f3, pattern3_f3))]
    for tab in tables:
        assert certificate_agrees_with_oracle(tab, tab.irreducibles)
        for _ in range(3):
            for rows in mutations(tab, rng):
                assert not certificate_agrees_with_oracle(tab, rows)


def test_certificate_agrees_with_the_oracle_on_b3_f5():
    tab = table_of(B3_F5, cap=8000)
    assert tab.group.order == 8000 and tab.conj.k == 116
    assert certificate_agrees_with_oracle(tab, tab.irreducibles)
    for rows in mutations(tab, random.Random(5)):
        assert not certificate_agrees_with_oracle(tab, rows)


def test_certificate_on_rows_that_are_not_a_table(b3_f3):
    # without the trivial row the others stay orthonormal and Galois closed
    tab = char_table(unit_group(b3_f3))
    m = tab.conductor
    rows = [ch.vectors(m) for ch in tab.irreducibles[1:]]
    assert rows_orthonormal(rows, tab.conj.sizes, tab.group.order, m)
    assert _orthonormal_at_split_prime(rows, tab.conj.sizes, tab.group.order, m)
    # Gram at one root only: x = z + z^2 in Z[zeta_5] has x(w) x(w^-1) = 8
    # mod l = 41 at w = 10, but |x|^2 = 2 + z + z^4 is not 8. Galois closure
    # refuses it: sigma_2 x = z^2 + z^4 is not a row.
    x = ((1, 1), (2, 1))
    assert 10 ** 5 % 41 == 1 and (10 + 10 ** 2) * (10 ** 4 + 10 ** 3) % 41 == 8
    assert not rows_orthonormal([[x]], [1], 8, 5)
    assert not _orthonormal_at_split_prime([[x]], [1], 8, 5)
    # a Galois-fixed row that passes below the bound: 3 * 3 = 1 mod 2, but
    # the prime is taken above 1 * (3^2 + 1) = 10
    assert not _orthonormal_at_split_prime([[((0, 3),)]], [1], 1, 1)
    assert _orthonormal_at_split_prime([[((0, 1),)]], [1], 1, 1)
    # coefficients must be ints: a Fraction, even an integral one, is refused
    assert not _orthonormal_at_split_prime([[((0, Fraction(1)),)]], [1], 1, 1)


def test_corrupted_multiplicity_fails_the_certificate_in_optimized_mode():
    # one eigenvalue multiplicity moved to the next eigenvalue of its class
    # keeps the degree sum and the range check: only the orthonormality
    # certificate can refuse the table, with assert statements stripped
    out = run_optimized("""
        import brw.chars as chars
        from brw.algebra import borel_algebra
        from brw.errors import LiftFailure
        from brw.groups import unit_group
        real = chars._multiplicities
        corrupted = []

        def multiplicities(vals_mod, weights, l):
            out = real(vals_mod, weights, l)
            if not corrupted:
                k = next(k for k, mult in enumerate(out) if len(mult) > 1)
                mult = list(out[k])
                i = next(i for i, c in enumerate(mult) if c)
                mult[i] -= 1
                mult[(i + 1) % len(mult)] += 1
                out[k] = tuple(mult)
                corrupted.append(k)
            return out

        chars._multiplicities = multiplicities
        try:
            chars.char_table(unit_group(borel_algebra(5, 2)))
        except LiftFailure as e:
            print(len(corrupted), e)
    """)
    assert out.strip() == "1 lifted table failed its orthonormality certificate"


def test_char_table_cap():
    # the cap is checked by unit_group, before any element of A^x is built
    A = borel_algebra(3, 2)
    with pytest.raises(TooLarge, match="group order 12 exceeds cap 5"):
        unit_group(A, cap=5)
    assert A._groups == {}


def test_inner_product_examples(b2_f3):
    G = unit_group(b2_f3)
    tab = char_table(G)
    for i, chi in enumerate(tab.irreducibles):
        for j, psi in enumerate(tab.irreducibles):
            assert inner_product(chi, psi) == Fraction(1 if i == j else 0)
    reg = regular_character(G)
    for chi in tab.irreducibles:
        assert inner_product(reg, chi) == chi.degree
    one = trivial_character(G)
    nontriv = next(c for c in linear_characters(G) if not c.is_trivial())
    assert inner_product(one, char_from_linear(nontriv)) == 0


def test_inner_product_group_mismatch(b2_f3, b3_f2):
    with pytest.raises(GroupMismatch):
        inner_product(trivial_character(unit_group(b2_f3)),
                      trivial_character(unit_group(b3_f2)))


def test_induce_regular(b2_f3):
    G = unit_group(b2_f3)
    triv = units_of_trivial(b2_f3)
    ind = induce(G, triv, trivial_character(triv))
    reg = regular_character(G)
    assert ind == reg and ind.degree == G.order


def units_of_trivial(A):
    from brw.groups import intern_group
    return intern_group(A, [A.one])


def test_induce_example2(b2_f3):
    # tau on ZP with tau|P nontrivial induces an irreducible of degree 2
    A = b2_f3
    G = unit_group(A)
    P = radical_subgroup(A)
    ZP = set_product(G, center(G), P)
    taus = [t for t in linear_characters(ZP) if not t.restrict(P).is_trivial()]
    assert len(taus) == 4
    tab = char_table(G)
    deg2 = [c for c in tab.irreducibles if c.degree == 2]
    for tau in taus:
        ind = induce(G, ZP, char_from_linear(tau))
        assert inner_product(ind, ind) == 1
        assert any(ind == chi for chi in deg2)
    # for a fixed theta = tau|P, tau -> Ind tau is one-to-one onto the
    # degree >= 2 irreducibles
    theta = taus[0].restrict(P)
    over_theta = [t for t in taus if t.restrict(P) == theta]
    induced = [induce(G, ZP, char_from_linear(t)) for t in over_theta]
    assert len(induced) == len(deg2)
    for i, a in enumerate(induced):
        for j, b in enumerate(induced):
            assert (a == b) == (i == j)


def test_induce_contains_trivial(b2_f3, b3_f2, pattern3_f3):
    for A in (b2_f3, b3_f2, pattern3_f3):
        G = unit_group(A)
        for H in (radical_subgroup(A), torus_subgroup(A)):
            ind = induce(G, H, trivial_character(H))
            assert inner_product(ind, trivial_character(G)) == 1


def test_induce_requires_subgroup(b2_f3, b3_f2):
    with pytest.raises(NotSubgroup):
        induce(unit_group(b2_f3), unit_group(b3_f2), trivial_character(unit_group(b3_f2)))


def test_restrict_examples(b2_f3):
    A = b2_f3
    G = unit_group(A)
    P = radical_subgroup(A)
    tab = char_table(G)
    deg2 = next(c for c in tab.irreducibles if c.degree == 2)
    res = restrict(G, P, deg2)
    chars_P = linear_characters(P)
    mults = {ch.exps: inner_product(res, char_from_linear(ch)) for ch in chars_P}
    trivial_exps = next(c.exps for c in chars_P if c.is_trivial())
    assert mults[trivial_exps] == 0
    assert sorted(v for k, v in mults.items() if k != trivial_exps) == [1, 1]
    assert restrict(G, G, deg2) == deg2
    one = trivial_character(G)
    assert restrict(G, P, one) == trivial_character(P)
    assert res.degree == deg2.degree


def test_frobenius_reciprocity_randomized(b2_f3, b3_f2, b3_f3, pattern3_f3):
    rng = random.Random(17)
    checked = 0
    for A in (b2_f3, b3_f2, b3_f3, pattern3_f3):
        G = unit_group(A)
        tab = char_table(G)
        subgroups = [radical_subgroup(A), torus_subgroup(A),
                     set_product(G, center(G), radical_subgroup(A))]
        for H in subgroups:
            tabH = char_table(H)
            for _ in range(5):
                chi = rng.choice(tabH.irreducibles)
                psi = rng.choice(tab.irreducibles)
                lhs = inner_product(induce(G, H, chi), psi)
                rhs = inner_product(chi, restrict(G, H, psi))
                assert lhs == rhs
                checked += 1
    assert checked >= 50


def test_induction_transitivity(b3_f3, b4_f2):
    for A in (b3_f3, b4_f2):
        G = unit_group(A)
        K = set_product(G, center(G), radical_subgroup(A))  # Z P
        H = ideal_subgroup(A, radical_power(A, 2))  # 1 + J^2 <= ZP
        for lam in linear_characters(H)[:4]:
            chi = char_from_linear(lam)
            via = induce(G, K, induce(K, H, chi))
            direct = induce(G, H, chi)
            assert via == direct


def test_induce_from_the_whole_group_against_counting():
    # induced_linear's class sums of lam over G, read at the class
    # representatives, equal lam's exponents counted per class, at lam's
    # conductor; a copy of G that is not the interned group takes the
    # counting path. Both are the sums of the Character oracle's Ind lam.
    for name in DEFAULT_CORPUS:
        G = unit_group(corpus_algebra(name))
        conj = conjugacy_classes(G)
        copy = FiniteGroup(G.algebra, G.elements)
        lams = linear_characters(G)
        fast = induced_linear(G, G, lams)
        counted = induced_linear(G, copy, [LinearChar(copy, lam.m, lam.exps) for lam in lams])
        assert fast == counted, name
        for lam, sums in zip(lams, fast):
            oracle = induce(G, G, char_from_linear(lam))
            assert oracle.m == lam.m
            assert [tuple((e, x * size) for e, x in row)
                    for row, size in zip(oracle.rows, conj.sizes)] == sums, name


def test_linear_characters_are_constant_on_classes():
    # induced_linear reads Ind_G^G lam at class representatives: every linear
    # character built from a group or from a degree-one table row must be a
    # class function
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        G = unit_group(A)
        lams = [(X, lam) for X in (G, top_level(A).P) for lam in linear_characters(X)]
        lams += [(G, linear_char_from_character(chi))
                 for chi in char_table(G).irreducibles if chi.degree == 1]
        for X, lam in lams:
            assert lam.domain is X
            for cls in conjugacy_classes(X).classes:
                assert len({lam.exps[x] for x in cls}) == 1, name


def test_clifford_examples(b2_f3, b3_f2):
    A = b2_f3
    G = unit_group(A)
    P = radical_subgroup(A)
    theta = next(c for c in linear_characters(P) if not c.is_trivial())
    chi = next(c for c in char_table(G).irreducibles
               if c.degree == 2 and inner_product(restrict(G, P, c), char_from_linear(theta)) != 0)
    eta, S = clifford_correspondent(G, P, theta, chi)
    assert eta.degree == 1 and S.order == 6
    assert induce(G, S, eta) == chi
    # stabilizer = G: the correspondent is chi itself
    G3 = unit_group(b3_f2)
    N = ideal_subgroup(b3_f2, radical_power(b3_f2, 2))
    sig = next(c for c in linear_characters(N) if not c.is_trivial())
    chi3 = next(c for c in char_table(G3).irreducibles if c.degree == 2)
    eta3, S3 = clifford_correspondent(G3, N, sig, chi3)
    assert S3 is G3 and eta3 == chi3


def test_characters_on_a_copy_of_a_group_are_refused(b2_f3):
    # a group is its interned object: a FiniteGroup on the same elements is
    # another group, and no character is moved onto it or off it
    G, P = unit_group(b2_f3), radical_subgroup(b2_f3)
    copy = FiniteGroup(b2_f3, G.elements)
    theta = next(c for c in linear_characters(P) if not c.is_trivial())
    chi = next(c for c in char_table(G).irreducibles
               if inner_product(restrict(G, P, c), char_from_linear(theta)) != 0)
    on_copy = Character(copy, conjugacy_classes(copy), chi.m, chi.rows)
    calls = [lambda: restrict(copy, P, chi), lambda: restrict(G, P, on_copy),
             lambda: induce(G, copy, chi), lambda: induce(copy, G, on_copy),
             lambda: clifford_correspondent(copy, P, theta, chi),
             lambda: clifford_correspondent(G, P, theta, on_copy)]
    for call in calls:
        with pytest.raises(GroupMismatch):
            call()


def test_induce_takes_characters_only(b2_f3):
    # a LinearChar is refused with GroupMismatch, not an AttributeError:
    # char_from_linear makes it a Character, which induce takes
    G, P = unit_group(b2_f3), radical_subgroup(b2_f3)
    for H in (G, P):
        for lam in linear_characters(H):
            with pytest.raises(GroupMismatch):
                induce(G, H, lam)
            assert induce(G, H, char_from_linear(lam)).degree == G.order // H.order


def test_preconditions_raise_brw_errors_under_python_o():
    # each precondition that was an assert or a ValueError raises its BrwError
    # subclass, also under python -O, which strips assert statements
    out = run_optimized("""
        from brw.algebra import borel_algebra
        from brw.chars import Character, char_table
        from brw.errors import BrwError
        from brw.groups import FiniteGroup, linear_characters, unit_group
        from brw.gutkin import linear_char_from_character
        from brw.localfield import ResidueUnits, SmoothCharLocal, trivial_unit_part
        A = borel_algebra(3, 2)
        G = unit_group(A)
        tab = char_table(G)
        lam = next(x for x in linear_characters(G) if x.m > 1)
        chi = next(c for c in tab.irreducibles if c.degree == 2)
        unit = lambda k: SmoothCharLocal(3, k, trivial_unit_part(ResidueUnits(3, k)), 1)
        calls = [lambda: Character(G, tab.conj, 1, [((0, 1),)]),
                 lambda: Character(G, tab.conj, 4, [((1, 1),)] * tab.conj.k).degree,
                 lambda: FiniteGroup(A, tuple(x for x in G.elements if x != A.one)),
                 lambda: lam.rebase(lam.m + 1),
                 lambda: linear_char_from_character(chi),
                 lambda: unit(1).mul(unit(2))]
        for call in calls:
            try:
                call()
            except BrwError as exc:
                print(type(exc).__name__)
    """)
    assert out.split() == ["GroupMismatch", "LiftFailure", "NotSubgroup", "InvalidConductor",
                           "PreconditionFailure", "GroupMismatch"]


def test_clifford_requires_over_theta(b2_f3):
    G = unit_group(b2_f3)
    P = radical_subgroup(b2_f3)
    theta = next(c for c in linear_characters(P) if not c.is_trivial())
    lin = next(c for c in char_table(G).irreducibles if c.degree == 1)
    with pytest.raises(NotOverTheta):
        clifford_correspondent(G, P, theta, lin)


def _over_theta(A):
    """(G, P, theta, chi): theta a nontrivial linear character of P and chi an
    irreducible of G lying over it."""
    G, P = unit_group(A), radical_subgroup(A)
    theta = next(c for c in linear_characters(P) if not c.is_trivial())
    chi = next(c for c in char_table(G).irreducibles
               if inner_product(restrict(G, P, c), char_from_linear(theta)) != 0)
    return G, P, theta, chi


def test_clifford_norm_certificate(b2_f3, monkeypatch):
    # a projection of norm other than 1 is not irreducible; also under python -O
    G, P, theta, chi = _over_theta(b2_f3)
    monkeypatch.setattr(brw.chars, "inner_product", lambda a, b: 2)
    with pytest.raises(CertificationFailure):
        clifford_correspondent(G, P, theta, chi)
    out = run_optimized("""
        import brw.chars
        from brw.algebra import borel_algebra
        from brw.chars import char_from_linear, char_table, inner_product, restrict
        from brw.errors import CertificationFailure
        from brw.groups import linear_characters, radical_subgroup, unit_group
        A = borel_algebra(3, 2)
        G, P = unit_group(A), radical_subgroup(A)
        theta = next(c for c in linear_characters(P) if not c.is_trivial())
        chi = next(c for c in char_table(G).irreducibles
                   if inner_product(restrict(G, P, c), char_from_linear(theta)) != 0)
        brw.chars.inner_product = lambda a, b: 2
        try:
            brw.chars.clifford_correspondent(G, P, theta, chi)
        except CertificationFailure:
            print("raised")
    """)
    assert out.strip() == "raised"


def test_clifford_degree_certificate(b2_f3, b3_f3):
    # chi + 1 with theta nontrivial: the theta-part is chi's correspondent, of
    # norm 1, but it induces to chi, not to chi + 1
    for A in (b2_f3, b3_f3):
        G, P, theta, chi = _over_theta(A)
        plus_one = character_of(G, chi.conj, [v + 1 for v in values_of(chi)])
        with pytest.raises(CertificationFailure):
            clifford_correspondent(G, P, theta, plus_one)
        eta, S = clifford_correspondent(G, P, theta, chi)
        assert induce(G, S, eta) == chi


def test_clifford_sums_make_no_products_once_the_action_exists(b3_f3, monkeypatch):
    # after one step over (G, P), every other irreducible over theta reads the
    # ids of s*q off P's Schreier tree through the cached right action
    G, P, theta, chi = _over_theta(b3_f3)
    clifford_correspondent(G, P, theta, chi)
    tc = char_from_linear(theta)
    others = [c for c in char_table(G).irreducibles
              if c is not chi and inner_product(restrict(G, P, c), tc) != 0]
    calls = []
    real = Algebra.mul
    monkeypatch.setattr(Algebra, "mul", lambda self, x, y: calls.append(1) or real(self, x, y))
    for other in others:
        eta, S = clifford_correspondent(G, P, theta, other)
        assert eta.degree * (G.order // S.order) == other.degree
    assert others and not calls


def test_clifford_identity_across_orbit(b3_f3):
    # Ind(correspondent) = chi for every irreducible over a nontrivial theta
    A = b3_f3
    G = unit_group(A)
    Q = ideal_subgroup(A, radical_power(A, 2))
    tab = char_table(G)
    theta = next(c for c in linear_characters(Q) if not c.is_trivial())
    tc = char_from_linear(theta)
    hit = 0
    for chi in tab.irreducibles:
        if inner_product(restrict(G, Q, chi), tc) != 0:
            eta, S = clifford_correspondent(G, Q, theta, chi)
            assert induce(G, S, eta) == chi
            hit += 1
    assert hit > 0


def test_character_equality_across_conductors(b3_f2, b3_f3, monkeypatch):
    # a character compares by its values at any conductor: each witness's
    # Ind lam (at lam.m) and each Clifford correspondent of the descent (at
    # lcm(chi, theta)) equals exactly one table character, at the table's
    # conductor; b3_f2 has both kinds at a conductor other than its table's
    steps = []
    real = brw.gutkin.clifford_correspondent
    monkeypatch.setattr(brw.gutkin, "clifford_correspondent",
                        lambda G, Q, theta, chi, orbit=None:
                        steps.append((chi, theta, real(G, Q, theta, chi, orbit=orbit)))
                        or steps[-1][2])
    crossed = {"induced": 0, "clifford": 0}
    for A in (b3_f2, b3_f3):
        G = unit_group(A)
        tab = char_table(G)
        for chi in tab.irreducibles:
            w = gutkin_decompose(A, chi)
            ind = induce(G, w.H, char_from_linear(w.lam))
            assert ind.m == w.lam.m
            assert [ind == psi for psi in tab.irreducibles] == [psi is chi for psi in tab.irreducibles]
            crossed["induced"] += ind.m != tab.conductor
    for chi, theta, (eta, S) in steps:
        tabS = char_table(S)
        assert eta.m == lcm(chi.m, theta.m)
        assert sum(eta == psi for psi in tabS.irreducibles) == 1
        crossed["clifford"] += eta.m != tabS.conductor
    assert crossed == {"induced": 1, "clifford": 1} and len(steps) == 15


def test_constituent_decomposition(b2_f3):
    G = unit_group(b2_f3)
    tab = char_table(G)
    reg = regular_character(G)
    cons = constituents(reg, tab)
    assert {(m, int(c.degree)) for m, c in cons} == {(1, 1), (2, 2)}


def reference_inner_product(chi, psi):
    """Sum of |C_k| chi_k conj(psi_k) over the classes, divided by |G|, in
    plain Cyclotomic arithmetic on the values (no group-ring vectors)."""
    total = Cyc.zero()
    for size, a, b in zip(chi.conj.sizes, values_of(chi), values_of(psi)):
        total = total + a * conjugate(b) * size
    return (total / chi.group.order).rational()


def test_inner_product_against_reference(b2_f3, b3_f2):
    rng = random.Random(2026)
    checked = mixed_conductors = 0
    for A, conductor in ((b2_f3, 6), (borel_algebra(7, 2), 42), (b3_f2, 4)):
        G = unit_group(A)
        tab = char_table(G)
        assert tab.conductor == conductor
        P, T = radical_subgroup(A), torus_subgroup(A)
        pool = list(tab.irreducibles)
        # induced class functions; inducing a third of a linear character
        # gives values with Fraction coefficients
        for H in (P, T):
            for lam in linear_characters(H)[:3]:
                theta = char_from_linear(lam)
                pool.append(induce(G, H, theta))
                pool.append(induce(G, H, character_of(H, theta.conj,
                                                      [v * Fraction(1, 3) for v in values_of(theta)])))
        # irrational values given at two conductors, m and 2m, in one class
        # function: written at their lcm, against the table row at m
        for chi in [c for c in tab.irreducibles
                    if not all(v.is_rational() for v in values_of(c))][:2]:
            mixed = character_of(G, chi.conj, [v.embed(2 * v.m) if k % 2 else v
                                               for k, v in enumerate(values_of(chi))])
            assert mixed.m == 2 * chi.m and mixed == chi
            pool.append(mixed)
            mixed_conductors += 1
        assert any(not isinstance(c, int) for chi in pool for v in values_of(chi) for c in v.coeffs)
        for _ in range(40):
            chi, psi = rng.choice(pool), rng.choice(pool)
            assert inner_product(chi, psi) == reference_inner_product(chi, psi)
            checked += 1
        # on subgroups: restrictions at the table conductor against linear
        # characters at the subgroup's own, different conductor
        for H in (P, T):
            lins = [char_from_linear(lam) for lam in linear_characters(H)]
            for _ in range(10):
                res = restrict(G, H, rng.choice(tab.irreducibles))
                lin = rng.choice(lins)
                assert inner_product(res, lin) == reference_inner_product(res, lin)
                assert inner_product(lin, res) == reference_inner_product(lin, res)
                checked += 2
    assert checked == 3 * (40 + 40) and mixed_conductors > 0


def test_order_cap_checked_once_at_entry():
    # |G| = 8000 lies above the default cap; the entry applies it, and no
    # inner call takes a cap, so none can add a second, default one
    A = corpus_algebra("b3_f5")
    with pytest.raises(TooLarge):
        unit_group(A, cap=DEFAULT_ORDER_CAP)
    G = unit_group(A)
    assert G.order > DEFAULT_ORDER_CAP
    one = trivial_character(G)
    P = radical_subgroup(A)
    assert restrict(G, P, one) == trivial_character(P)
    copy = FiniteGroup(A, G.elements)   # same elements, another object: refused
    with pytest.raises(GroupMismatch):
        restrict(copy, P, one)
    theta = next(c for c in linear_characters(P) if not c.is_trivial())
    ind = induce(G, P, char_from_linear(theta))
    assert ind.degree == G.order // P.order
    assert inner_product(ind, one) == 0
    assert inner_product(regular_character(G), one) == 1
    assert conjugacy_classes(G) is one.conj


# -- Dixon-Schneider internals against oracles that share no code with them --

def det_mod(rows, l):
    """Determinant over F_l by Gaussian elimination with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % l), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % l
        inv = pow(a[c][c], l - 2, l)
        for i in range(c + 1, n):
            f = a[i][c] * inv % l
            a[i] = [(x - f * y) % l for x, y in zip(a[i], a[c])]
    return det % l


def assert_charpoly(B, l):
    d = len(B)
    poly = _charpoly(B, l)
    assert len(poly) == d + 1 and poly[-1] == 1
    roots = _roots(poly, l)
    found = 0
    for lam in range(l):
        shifted = [[(B[i][j] - (lam if i == j else 0)) % l for j in range(d)] for i in range(d)]
        ker = kernel_basis(shifted, d, l)
        assert (lam in roots) == bool(ker), (d, lam)
        found += len(ker)
        if d <= 12:
            # the value at lam is det(lam I - B) = (-1)^d det(B - lam I)
            value = sum(c * pow(lam, e, l) for e, c in enumerate(poly)) % l
            assert value == (-1) ** d * det_mod(shifted, l) % l, (d, lam)
    return roots, found


def test_charpoly_roots_are_eigenvalues():
    rng = random.Random(43)
    l = 43
    # random dense matrices, d > l included (a trace formula would divide by l)
    for d in (1, 2, 3, 5, 8, 12, 20, 42, 43, 44, 60):
        assert_charpoly([[rng.randrange(l) for _ in range(d)] for _ in range(d)], l)
    # sparse ones, whose Hessenberg form has zeros on the subdiagonal
    for d in (4, 9, 12, 30):
        B = [[rng.randrange(l) if rng.random() < 0.15 else 0 for _ in range(d)]
             for _ in range(d)]
        assert_charpoly(B, l)
    blocks = [[1, 2, 0, 0, 5], [3, 4, 0, 0, 6], [0, 0, 7, 8, 0], [0, 0, 9, 10, 0],
              [0, 0, 0, 0, 11]]
    assert_charpoly(blocks, l)
    # diagonalizable with repeated eigenvalues: S D S^-1, built from a random
    # unimodular S = product of elementary row operations
    diag = [5, 5, 5, 17, 17, 0, 42, 42, 1, 5, 0, 17]
    d = len(diag)
    S = [[int(i == j) for j in range(d)] for i in range(d)]
    Sinv = [row[:] for row in S]
    for _ in range(60):
        i, j = rng.sample(range(d), 2)
        f = rng.randrange(1, l)
        S[i] = [(x + f * y) % l for x, y in zip(S[i], S[j])]      # S <- E S
        for row in Sinv:                                            # Sinv <- Sinv E^-1
            row[j] = (row[j] - f * row[i]) % l
    B = [[sum(S[i][k] * diag[k] * Sinv[k][j] for k in range(d)) % l for j in range(d)]
         for i in range(d)]
    roots, found = assert_charpoly(B, l)
    assert roots == sorted(set(diag)) and found == d


def brute_class_matrix(G, conj, r):
    """M_r[j][k] = #{(x, y) in C_r x C_j : x y = rep_k}, over all pairs."""
    A = G.algebra
    rep_class = {G.elements[i]: k for k, i in enumerate(conj.reps)}
    M = [[0] * conj.k for _ in range(conj.k)]
    for xid in conj.classes[r]:
        for yid, y in enumerate(G.elements):
            k = rep_class.get(A.mul(G.elements[xid], y))
            if k is not None:
                M[conj.class_of[yid]][k] += 1
    return M


def test_class_matrix_against_pair_count(b2_f3, b2_f5, b3_f3, pattern3_f3):
    rng = random.Random(7)
    non_real = 0
    for A in (b2_f3, b2_f5, b3_f3, rebased(pattern3_f3, rng)):
        G = unit_group(A)
        conj = conjugacy_classes(G)
        for r in range(conj.k):
            r_inv = conj.class_of[G.inv_id(conj.reps[r])]
            non_real += r_inv != r
            dense = [[0] * conj.k for _ in range(conj.k)]
            for k, col in enumerate(_class_matrix(G, conj, r_inv)):
                for j, c in col:
                    assert c
                    dense[j][k] = c
            assert dense == brute_class_matrix(G, conj, r), (A, r)
    assert non_real   # diag(2, 1) in B_2(F_5) is not conjugate to its inverse


def test_lift_matches_values_on_powers(b3_f3, pattern3_f3):
    # chi(g^s) = sum_j c_j zeta_m^(j s) for the lifted eigenvalue multiplicities
    # c of g, with the powers g^s formed by Algebra.mul
    rng = random.Random(11)
    specs = (borel_algebra(7, 2), pattern_algebra(3, 4, [(1, 2), (1, 3), (1, 4)]),
             b3_f3, pattern3_f3)
    for A in (rebased(B, rng) for B in specs):
        G = unit_group(A)
        tab = char_table(G)
        conj, m = tab.conj, tab.conductor
        for k, r in enumerate(conj.reps):
            g = G.elements[r]
            power_classes = []
            y = A.one
            while True:
                power_classes.append(conj.class_of[G.index[y]])
                y = A.mul(y, g)
                if y == A.one:
                    break
            for chi in tab.irreducibles:
                exps = chi.vectors(m)[k]
                assert sum(c for _, c in exps) == chi.degree
                for s, cls in enumerate(power_classes):
                    acc = [0] * m
                    for j, c in exps:
                        acc[j * s % m] += c
                    assert Cyclotomic(m, acc) == values_of(chi)[cls], (k, s)


def test_lift_matches_exact_dft_oracle():
    # every multiplicity vector of the shared mod-l DFT against the exact DFT
    # over Q(zeta_m), on the corpus, two mid-size groups and their rebasings
    algebras = [corpus_algebra(name) for name in DEFAULT_CORPUS]
    for spec in ({"p": 7, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}},
                 {"p": 3, "pattern": {"n": 4, "closed_pairs": [[1, 2], [1, 3], [1, 4]]}}):
        A = algebra_from_spec(spec)
        algebras += [A] + [rebased(A, random.Random(seed)) for seed in (1, 2, 3)]
    for A in algebras:
        tab = char_table(unit_group(A))
        assert lift_oracle(tab) == [ch.vectors(tab.conductor) for ch in tab.irreducibles]


def test_certificates_survive_optimized_mode():
    out = run_optimized("""
        from fractions import Fraction
        from brw.algebra import borel_algebra
        from brw.chars import char_table
        from brw.errors import CertificationFailure
        from brw.exact import _poly_divmod_int
        from brw.groups import conjugacy_classes, unit_group
        from helpers import character_of, constituents
        G = unit_group(borel_algebra(3, 2))
        conj = conjugacy_classes(G)
        half = character_of(G, conj, [Fraction(1, 2)] * conj.k)
        for call in (lambda: constituents(half, char_table(G)),
                     lambda: _poly_divmod_int([1, 0, 1], [0, 2]),
                     lambda: _poly_divmod_int([1, 0, 1], [0, 1])):
            try:
                call()
            except CertificationFailure:
                print("raised")
    """)
    assert out.split() == ["raised"] * 3


def test_table_certificate_checks_survive_optimized_mode():
    # each check of the certificate returns False with assert statements
    # stripped: Galois closure, the bound, int coefficients and the Gram product
    out = run_optimized("""
        from fractions import Fraction
        from brw.algebra import borel_algebra
        from brw.chars import CharTable, _orthonormal_at_split_prime, char_table
        from brw.groups import unit_group
        tab = char_table(unit_group(borel_algebra(5, 2)))
        rows = list(tab.irreducibles)
        rows[1] = rows[0]
        print(_orthonormal_at_split_prime([[((1, 1), (2, 1))]], [1], 8, 5),
              _orthonormal_at_split_prime([[((0, 3),)]], [1], 1, 1),
              _orthonormal_at_split_prime([[((0, Fraction(1)),)]], [1], 1, 1),
              CharTable(tab.group, tab.conj, rows, tab.conductor).verify())
    """)
    assert out.split() == ["False"] * 4
