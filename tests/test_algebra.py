import random
from collections import Counter

import pytest

from brw import algebra
from brw.algebra import (DEFAULT_DIM_BOUND, Algebra, Ideal,
                         Subalgebra, Subspace, algebra_from_spec,
                         basic_decomposition, bimodule_complement,
                         bimodule_decompose, borel_algebra,
                         enumerate_subalgebras, is_split_basic,
                         pattern_algebra, radical, radical_power)
from brw.corpus import DEFAULT_CORPUS, corpus_algebra
from brw.errors import NotBimodule, NotSplitBasic, SpecError, TooLarge
from brw.exact import rref
from brw.gutkin import top_level
from helpers import (closure_oracle, coords_of, diagonal_algebra, ideal_oracle,
                     is_nilpotent, matrix_algebra_2x2, polynomial_quotient, product_algebra,
                     rebased, recount_subalgebras, split_basic_oracle, subalgebra_algebra,
                     sum_with)


def test_construction_validates():
    with pytest.raises(SpecError):
        Algebra(3, [], [])  # zero-dimensional
    # broken identity
    with pytest.raises(SpecError):
        Algebra(3, [[[1]]], [0])
    # unital but not associative: (x x) x = y x = x while x (x x) = x y = 0
    z = [0, 0, 0]
    sc = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], list(z)],
        [[0, 0, 1], [0, 1, 0], list(z)],
    ]
    with pytest.raises(SpecError):
        Algebra(2, sc, [1, 0, 0])


def test_radical_examples(b2_f3, b3_f2, diag2_f3):
    assert radical(b2_f3).rows == ((0, 0, 1),)
    assert radical(diag2_f3).dim == 0
    J = radical(b3_f2)
    assert J.dim == 3
    assert set(J.rows) == {b3_f2.basis_vector(i) for i in (3, 4, 5)}


def test_radical_power_examples(b2_f3, b3_f2):
    assert radical_power(b3_f2, 2).rows == (b3_f2.basis_vector(4),)  # e12 e23 = e13
    assert radical_power(b3_f2, 3).dim == 0
    assert radical_power(b2_f3, 2).dim == 0


def test_basic_decomposition_examples(b2_f3, b3_f2):
    dec = basic_decomposition(b2_f3)
    assert list(dec.idempotents) == [(1, 0, 0), (0, 1, 0)]  # e11, e22
    dec3 = basic_decomposition(b3_f2)
    assert list(dec3.idempotents) == [b3_f2.basis_vector(i) for i in range(3)]
    assert dec3.diagonal.dim == 3
    one_dim = diagonal_algebra(3, 1)
    dec1 = basic_decomposition(one_dim)
    assert dec1.idempotents == (one_dim.one,) and dec1.radical.dim == 0


def test_decomposition_invariants(b3_f3, pattern3_f3):
    for A in (b3_f3, pattern3_f3):
        dec = basic_decomposition(A)
        zero = tuple(0 for _ in range(A.dim))
        total = zero
        for i, e in enumerate(dec.idempotents):
            for j, f in enumerate(dec.idempotents):
                assert A.mul(e, f) == (e if i == j else zero)
            total = tuple((a + b) % A.p for a, b in zip(total, e))
        assert total == A.one
        assert dec.diagonal.dim + dec.radical.dim == A.dim
        for v in dec.radical.rows:
            assert is_nilpotent(A, v)


def test_bimodule_decompose_examples(b2_f5, b3_f2):
    dec = basic_decomposition(b3_f2)
    comps = bimodule_decompose(dec.diagonal, radical(b3_f2))
    assert [(i, j) for i, j, _ in comps] == [(0, 1), (0, 2), (1, 2)]
    assert [c.rows for _, _, c in comps] == [
        (b3_f2.basis_vector(3),), (b3_f2.basis_vector(4),), (b3_f2.basis_vector(5),)]
    assert bimodule_decompose(dec.diagonal, Subspace(b3_f2, ())) == []
    dec5 = basic_decomposition(b2_f5)
    comps5 = bimodule_decompose(dec5.diagonal, radical(b2_f5))
    assert len(comps5) == 1 and comps5[0][2].dim == 1


def test_bimodule_component_annihilation(b3_f3):
    # e_i (e_r V e_s) e_j = 0 unless (i,j) = (r,s)
    A = b3_f3
    dec = basic_decomposition(A)
    V = radical(A)
    comps = bimodule_decompose(dec.diagonal, V)
    assert sum(c.dim for _, _, c in comps) == V.dim
    zero = tuple(0 for _ in range(A.dim))
    for r, s, comp in comps:
        for i, ei in enumerate(dec.idempotents):
            for j, ej in enumerate(dec.idempotents):
                for v in comp.rows:
                    w = A.mul(ei, A.mul(v, ej))
                    if (i, j) != (r, s):
                        assert w == zero
                    else:
                        assert w == v


def test_bimodule_complement_examples(b3_f2):
    A = b3_f2
    dec = basic_decomposition(A)
    J = radical(A)
    V1 = Subspace(A, [A.basis_vector(4)])  # span e13
    V2 = bimodule_complement(dec.diagonal, J, V1)
    assert set(V2.rows) == {A.basis_vector(3), A.basis_vector(5)}
    assert bimodule_complement(dec.diagonal, J, J).dim == 0
    full = bimodule_complement(dec.diagonal, J, Subspace(A, ()))
    assert set(full.rows) == set(J.rows)


def test_bimodule_complement_randomized(b3_f3, b4_f2):
    rng = random.Random(23)
    for A in (b3_f3, b4_f2):
        dec = basic_decomposition(A)
        J = radical(A)
        pieces = [c.rows[t] for _, _, c in bimodule_decompose(dec.diagonal, J)
                  for t in range(c.dim)]
        for _ in range(10):
            subset = [v for v in pieces if rng.random() < 0.5]
            V1 = Subspace(A, subset)
            V2 = bimodule_complement(dec.diagonal, J, V1)
            assert V1.dim + V2.dim == J.dim
            assert V1.intersect(V2).dim == 0


def test_bimodule_rejects_nonbimodule(b3_f2):
    dec = basic_decomposition(b3_f2)
    # span{e12 + e11} is not closed under the idempotent action
    bad = Subspace(b3_f2, [tuple((a + b) % 2 for a, b in
                                 zip(b3_f2.basis_vector(0), b3_f2.basis_vector(3)))])
    with pytest.raises(NotBimodule):
        bimodule_decompose(dec.diagonal, bad)


def test_enumerate_subalgebras_b2f2(b2_f2):
    subs = enumerate_subalgebras(b2_f2)
    assert len(subs) == 5
    assert [s.dim for s in subs] == [1, 2, 2, 2, 3]
    assert subs[0].rows == (b2_f2.one,)
    assert subs[-1].dim == b2_f2.dim
    for s in subs:
        assert s.contains_one and s.mult_closed


def test_enumerate_subalgebras_small():
    assert len(enumerate_subalgebras(diagonal_algebra(3, 1))) == 1
    assert len(enumerate_subalgebras(diagonal_algebra(2, 2))) == 2


def test_enumerate_matches_independent_recount(b2_f2, b2_f3):
    for A in (b2_f2, b2_f3):
        walk = {s.rows for s in enumerate_subalgebras(A)}
        assert walk == recount_subalgebras(A)


def _scanned_corpus():
    for name in DEFAULT_CORPUS:
        A = corpus_algebra(name)
        if A.dim <= DEFAULT_DIM_BOUND[A.p]:
            yield A


def test_enumerate_matches_all_pairs_closure(monkeypatch):
    # the same lattice when every closure is the all-pairs fixpoint
    walks = [[s.rows for s in enumerate_subalgebras(A)] for A in _scanned_corpus()]
    monkeypatch.setattr(algebra, "_closure_rows",
                        lambda A, rows, pivots, d, known: closure_oracle(A, rows + (d,)))
    assert walks == [[s.rows for s in enumerate_subalgebras(A)] for A in _scanned_corpus()]


def test_closure_against_all_pairs_fixpoint():
    # arbitrary extra vectors, from span{1} and from a random subalgebra of a
    # corpus algebra in a dense random basis, one vector at a time; one span
    # map per algebra, shared by all its closures
    rng = random.Random(3)
    for A in _scanned_corpus():
        B = rebased(A, rng)
        subs = enumerate_subalgebras(B)
        known = {}

        def closure(rows, extra):
            for d in extra:
                rows = algebra._closure_rows(B, rows, rref(rows, B.p)[1], d, known)
            return rows

        for _ in range(6):
            S = rng.choice(subs)
            extra = [tuple(rng.randrange(B.p) for _ in range(B.dim))
                     for _ in range(rng.randrange(1, 3))]
            one = rref([B.one], B.p)[0]
            assert closure(one, extra) == closure_oracle(B, [B.one] + extra)
            assert closure(S.rows, extra) == closure_oracle(B, S.rows + tuple(extra))


def test_every_walk_closure_against_all_pairs_fixpoint(monkeypatch):
    # every closure the walk asks for, whether computed, stopped early at a
    # known span or answered by the span map at once, equals the all-pairs
    # fixpoint: on the corpus, the corpus in random bases (seeds 1-3) and the
    # 266-algebra subalgebra corpus
    algebras = list(_scanned_corpus())
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        algebras += [rebased(A, rng) for A in _scanned_corpus()]
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        A = corpus_algebra(name)
        algebras += [subalgebra_algebra(B) for B in enumerate_subalgebras(A)]
    assert len(algebras) == 40 + 266
    tally = Counter()
    real = algebra._closure_rows

    def closure(A, rows, pivots, d, known):
        before = set(known)
        out = real(A, rows, pivots, d, known)
        assert out == closure_oracle(A, rows + (d,))
        tally["calls"] += 1
        tally["stops"] += out in before           # ended at a known span
        tally["lookups"] += len(known) == len(before)   # answered at once
        return out

    monkeypatch.setattr(algebra, "_closure_rows", closure)
    for A in algebras:
        enumerate_subalgebras(A)
    assert 0 < tally["lookups"] < tally["stops"] < tally["calls"]


def test_enumerate_caps(b3_f3, monkeypatch):
    with pytest.raises(TooLarge):
        enumerate_subalgebras(b3_f3)  # dim 6 > default bound 5 for p=3
    monkeypatch.setattr(algebra, "DEFAULT_SCAN_BUDGET", 3)
    with pytest.raises(TooLarge):
        enumerate_subalgebras(borel_algebra(2, 3))


def test_lemma_subalgebra_property(b2_f2, b2_f3, b3_f2):
    # every subalgebra of a split basic algebra is split basic
    for A in (b2_f2, b2_f3, b3_f2):
        for sub in enumerate_subalgebras(A):
            ok, reason = is_split_basic(sub)
            assert ok, (sub.rows, reason)


def test_is_split_basic_examples(b3_f2):
    assert is_split_basic(borel_algebra(5, 2))[0]
    assert is_split_basic(b3_f2)[0]
    ok, reason = is_split_basic(matrix_algebra_2x2(2))
    assert not ok and "not nilpotent" in reason
    with pytest.raises(NotSplitBasic):
        radical(matrix_algebra_2x2(2))


def fixed_examples():
    """(algebra, split basic?) for algebras outside the monomial corpus."""
    m2_f2 = matrix_algebra_2x2(2)
    return [
        (m2_f2, False),
        (matrix_algebra_2x2(3), False),
        (polynomial_quotient(3, [1, 0]), False),     # F_9 = F_3[x]/(x^2 + 1)
        (polynomial_quotient(2, [1, 1]), False),     # F_4 = F_2[x]/(x^2 + x + 1)
        # I = M_2 x (x) > I^2 = I^3 = M_2 x 0: the chain stalls at its second step
        (product_algebra(m2_f2, polynomial_quotient(2, [0, 0])), False),
        (polynomial_quotient(3, [2, 0]), True),      # F_3[x]/(x^2 - 1) = F_3 x F_3
        (polynomial_quotient(2, [0, 0, 0]), True),   # F_p[x]/(x^k)
        (polynomial_quotient(5, [0, 0, 0, 0]), True),
    ]


def analysis_matches_oracle(A):
    """Verdict of the split-basic analysis, after checking it, the radical
    rows and the quotient idempotents against split_basic_oracle."""
    verdict, rows, quotient = split_basic_oracle(A)
    try:
        chain, prims = algebra._split_basic_analysis(A, A.basis())
    except NotSplitBasic:
        assert not verdict
        return False
    assert verdict and chain[0] == rows and prims == quotient
    return True


def test_split_basic_analysis_on_fixed_examples():
    for A, split in fixed_examples():
        assert analysis_matches_oracle(A) == split
        assert is_split_basic(A)[0] == split


def test_split_basic_analysis_on_the_corpus_in_random_bases():
    for name in DEFAULT_CORPUS:
        assert analysis_matches_oracle(corpus_algebra(name))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for name in DEFAULT_CORPUS:
            assert analysis_matches_oracle(rebased(corpus_algebra(name), rng))


def test_split_basic_analysis_on_the_subalgebra_corpus():
    count = 0
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        A = corpus_algebra(name)
        for B in enumerate_subalgebras(A):
            assert analysis_matches_oracle(subalgebra_algebra(B))
            count += 1
    assert count == 266


def test_ideal_closure_against_triple_products():
    rng = random.Random(11)
    for A in [corpus_algebra(name) for name in DEFAULT_CORPUS] + [A for A, _ in fixed_examples()]:
        B = rebased(A, rng)
        for k in (1, 2):
            gens = [tuple(rng.randrange(B.p) for _ in range(B.dim)) for _ in range(k)]
            assert algebra._ideal_closure(B, B.basis(), gens)[0] == ideal_oracle(B, gens)


def test_radical_contains_random_nilpotents(b3_f3):
    rng = random.Random(5)
    J = radical(b3_f3)
    nil = [v for v in b3_f3.elements() if is_nilpotent(b3_f3, v)]
    for v in rng.sample(nil, 20):
        assert J.contains(v)


def test_quotient_by_radical_is_semisimple(b3_f3):
    # A/J has zero radical: no nonzero nilpotents in the diagonal section
    dec = basic_decomposition(b3_f3)
    sub = Subalgebra(b3_f3, dec.diagonal.rows)
    assert radical(subalgebra_algebra(sub)).dim == 0


def test_ideal_certificates(b3_f2):
    J = radical(b3_f2)
    basis = [b3_f2.basis_vector(i) for i in range(b3_f2.dim)]
    assert J.closed_under(basis, basis)
    with pytest.raises(SpecError):
        Ideal(b3_f2, [b3_f2.basis_vector(3)])  # span{e12} is not two-sided


def test_one_sided_ideals_are_not_ideals(b2_f3):
    # basis e11, e22, e12: span{e11} is closed under left multiplication only
    # (e11 e12 = e12), span{e22} under right multiplication only (e12 e22 = e12)
    A = b2_f3
    basis = [A.basis_vector(i) for i in range(A.dim)]
    e11, e22 = Subspace(A, [basis[0]]), Subspace(A, [basis[1]])
    assert e11.closed_under(basis, ()) and not e11.closed_under((), basis)
    assert e22.closed_under((), basis) and not e22.closed_under(basis, ())
    level = top_level(A)
    for one_sided in (e11, e22):
        with pytest.raises(SpecError):
            Ideal(A, one_sided.rows)
        assert not level.is_ideal_of_level(one_sided)
    assert level.is_ideal_of_level(radical(A))


def test_subalgebra_certificates(b2_f3):
    with pytest.raises(SpecError):
        Subalgebra(b2_f3, [b2_f3.basis_vector(2)])  # no identity
    s = Subalgebra(b2_f3, [b2_f3.one, b2_f3.basis_vector(2)])
    assert s.contains_one and s.mult_closed


def test_to_ambient_is_a_unital_homomorphism_on_the_subalgebra_corpus():
    # subalgebra_algebra reduces products along B's rows; the check reads
    # only the owner's mul and combine
    subs = []
    for name in ("b2_f5", "b3_f2", "pattern3_f3", "pattern4_f2"):
        subs += enumerate_subalgebras(corpus_algebra(name))
    assert len(subs) == 266
    for seed in (1, 2):
        subs += enumerate_subalgebras(rebased(corpus_algebra("b3_f2"), random.Random(seed)))
    for B in subs:
        A, L = B.owner, subalgebra_algebra(B)
        basis = [L.basis_vector(i) for i in range(L.dim)]
        assert L.dim == B.dim
        assert [A.combine(x, B.rows) for x in basis] == list(B.rows)
        assert A.combine(L.one, B.rows) == A.one
        for x in basis:
            for y in basis:
                assert (A.mul(A.combine(x, B.rows), A.combine(y, B.rows))
                        == A.combine(L.mul(x, y), B.rows))


def test_subalgebra_certificate_messages(b3_f2):
    A = b3_f2   # basis e11, e22, e33, e12, e13, e23
    with pytest.raises(SpecError, match="subalgebra must contain the identity"):
        Subalgebra(A, [A.basis_vector(0), A.basis_vector(3)])
    # span{1, e12, e23} holds 1 but not e12 e23 = e13
    with pytest.raises(SpecError, match="subspace is not multiplicatively closed"):
        Subalgebra(A, [A.one, A.basis_vector(3), A.basis_vector(5)])
    assert Subalgebra(A, [A.one, A.basis_vector(3), A.basis_vector(4), A.basis_vector(5)]).dim == 4


def test_largest_ideal_inside(b3_f2, b4_f2):
    from helpers import largest_ideal_inside
    from helpers import echelon_subspaces

    def brute_sum_of_ideals(A, X):
        collected = []
        for k in range(0, X.dim + 1):
            for rows in echelon_subspaces(A.p, A.dim, k):
                sp = Subspace(A, rows)
                if not all(X.contains(r) for r in sp.rows):
                    continue
                if all(sp.contains(A.mul(A.basis_vector(b), v)) and
                       sp.contains(A.mul(v, A.basis_vector(b)))
                       for b in range(A.dim) for v in sp.rows):
                    collected.extend(sp.rows)
        return Subspace(A, collected)

    A = b3_f2
    cases = [
        Subspace(A, [A.basis_vector(3), A.basis_vector(4)]),   # span{e12,e13}: ideal
        Subspace(A, [A.basis_vector(3)]),                      # span{e12}: not
        Subspace(A, [tuple((a + b) % 2 for a, b in zip(A.basis_vector(3), A.basis_vector(5))),
                     A.basis_vector(4)]),                      # mixed line + e13
    ]
    for X in cases:
        got = largest_ideal_inside(A, X)
        assert got.rows == brute_sum_of_ideals(A, X).rows
        assert all(X.contains(r) for r in got.rows)
    # in B4(F2): the radical itself is the largest ideal inside itself
    J4 = radical(b4_f2)
    assert largest_ideal_inside(b4_f2, J4).rows == J4.rows


def test_subspace_operations(b3_f2):
    A = b3_f2
    U = Subspace(A, [A.basis_vector(3), A.basis_vector(4)])
    W = Subspace(A, [A.basis_vector(4), A.basis_vector(5)])
    assert U.intersect(W).rows == (A.basis_vector(4),)
    assert sum_with(U, W).dim == 3
    assert coords_of(U, A.basis_vector(3)) == (1, 0)


def test_pattern_spec_errors():
    with pytest.raises(SpecError):
        pattern_algebra(3, 2, [(2, 1)])
    with pytest.raises(SpecError):
        pattern_algebra(2, 3, [(1, 2), (2, 3)])  # missing (1,3)
    with pytest.raises(SpecError):
        pattern_algebra(3, 2, [(1, 2), (1, 2)])


def test_algebra_from_spec_roundtrip(b2_f3):
    spec = {"p": 3, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}}
    A = algebra_from_spec(spec)
    assert A.sc == b2_f3.sc and A.one == b2_f3.one
    explicit = {"p": 3, "dim": 1, "one": [1], "sc": [[[1]]]}
    B = algebra_from_spec(explicit)
    assert B.dim == 1
    with pytest.raises(SpecError):
        algebra_from_spec({"p": 3})
    with pytest.raises(SpecError):
        algebra_from_spec({"p": 3, "dim": 2, "one": [1], "sc": [[[1]]]})


def test_mul_against_dense_structure_constants():
    # the kernel skips the pairs with b_i b_j = 0; a dense triple loop over sc
    # does not, on sparse corpus bases, dense random ones and products and
    # polynomial quotients with many zero products
    rng = random.Random(4)
    algebras = [corpus_algebra(name) for name in DEFAULT_CORPUS]
    for seed in (1, 2, 3):
        seeded = random.Random(seed)
        algebras += [rebased(corpus_algebra(name), seeded) for name in DEFAULT_CORPUS]
    algebras += [A for A, _ in fixed_examples()]
    algebras += [product_algebra(corpus_algebra("b2_f3"), polynomial_quotient(3, [0, 0, 0])),
                 product_algebra(diagonal_algebra(5, 2), polynomial_quotient(5, [0, 0]))]
    for A in algebras:
        n = A.dim
        for _ in range(20):
            x, y = ([rng.choice([0] * 2 + list(range(A.p))) for _ in range(n)] for _ in "xy")
            dense = tuple(sum(x[i] * y[j] * A.sc[i][j][k] for i in range(n) for j in range(n))
                          % A.p for k in range(n))
            assert A.mul(tuple(x), tuple(y)) == dense
