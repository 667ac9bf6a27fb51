from fractions import Fraction

import pytest

from brw.algebra import Subalgebra, cached_decomposition, radical
from brw.chars import char_table
from brw.errors import GroupMismatch, SpecError
from brw.groups import unit_group
from brw.gutkin import gutkin_decompose
from brw.localfield import (InductionDatum, ResidueUnits, SmoothCharLocal,
                            factor_unitary, is_admissible_shape,
                            trivial_unit_part,
                            unit_characters)
from helpers import Cyc, run_optimized, smooth_char_group


def test_unit_character_counts():
    assert len(unit_characters(5, 1)) == 4
    assert len(unit_characters(2, 3)) == 4
    assert len(unit_characters(3, 2)) == 6
    assert len(unit_characters(7, 1)) == 6


def test_unit_characters_multiplicative():
    for p, k in [(3, 2), (5, 1), (2, 3)]:
        for ch in unit_characters(p, k):
            g = ch.domain
            for a in g.elements:
                for b in g.elements:
                    i, j, k = g.index[a], g.index[b], g.index[g.mul(a, b)]
                    assert (ch.exps[i] + ch.exps[j] - ch.exps[k]) % ch.m == 0


def test_smooth_char_group_examples():
    assert smooth_char_group(5, 1).divisors == (4,)
    assert smooth_char_group(2, 3).divisors == (2, 2)
    assert smooth_char_group(3, 2).divisors == (6,)


def test_smooth_char_group_sizes_euler_phi():
    phi = {(2, 1): 1, (2, 2): 2, (2, 3): 4, (3, 1): 2, (3, 2): 6, (5, 1): 4, (7, 1): 6}
    for (p, k), expect in phi.items():
        grp = smooth_char_group(p, k)
        assert grp.unit_group_order == expect
        assert len(unit_characters(p, k)) == expect


def test_smooth_char_group_requires_level():
    with pytest.raises(SpecError):
        smooth_char_group(3, 0)


def test_factor_unitary_examples():
    alpha = [c for c in unit_characters(3, 2) if not c.is_trivial()][0]
    chi = SmoothCharLocal(3, 2, alpha, 3, 4, 1)
    unitary, twist = factor_unitary(chi)
    assert unitary.r == 1 and unitary.unit_part == alpha
    assert twist.r == 3 and twist.unit_part.is_trivial() and twist.phase_e == 0
    assert unitary.mul(twist) == chi
    # already unitary: idempotent with trivial twist
    u2, t2 = factor_unitary(unitary)
    assert u2 == unitary and t2.r == 1


def test_factor_unitary_pointwise_on_generators():
    alpha = [c for c in unit_characters(5, 1) if not c.is_trivial()][0]
    chi = SmoothCharLocal(5, 1, alpha, Fraction(1, 2), 8, 3)
    unitary, twist = factor_unitary(chi)
    gen = 2  # a unit residue mod 5
    for residue, val in [(gen, 0), (1, 1), (gen, 1), (gen, 3)]:
        r1, ph1 = chi.value(residue, val)
        ru, phu = unitary.value(residue, val)
        rt, pht = twist.value(residue, val)
        assert r1 == ru * rt
        assert ph1 == Cyc.of(phu) * pht


def test_unit_parts_on_different_groups_do_not_multiply():
    a, b = unit_characters(3, 2)[1], unit_characters(5, 1)[1]
    with pytest.raises(GroupMismatch):
        a.mul(b)
    assert a != b
    # the check is an exception, not an assert, so it holds under python -O
    assert run_optimized("""
        from brw.errors import GroupMismatch
        from brw.localfield import unit_characters
        try:
            unit_characters(3, 2)[1].mul(unit_characters(5, 1)[1])
        except GroupMismatch:
            print("refused")
    """).strip() == "refused"


def test_rejects_nonpositive_modulus():
    with pytest.raises(SpecError):
        SmoothCharLocal(3, 1, trivial_unit_part(ResidueUnits(3, 1)), 0)
    with pytest.raises(SpecError):
        SmoothCharLocal(3, 1, trivial_unit_part(ResidueUnits(3, 1)), -2)


def test_admissible_shape_examples(b2_f3):
    A = b2_f3
    dec = cached_decomposition(A)
    witness_B = Subalgebra(A, [A.one, A.basis_vector(2)])
    assert not is_admissible_shape(InductionDatum(A, witness_B))
    full = Subalgebra(A, [A.basis_vector(i) for i in range(A.dim)])
    assert is_admissible_shape(InductionDatum(A, full))
    d_plus_j = Subalgebra(A, list(dec.diagonal.rows) + list(radical(A).rows))
    assert is_admissible_shape(InductionDatum(A, d_plus_j))


def test_admissible_iff_linear_on_b2(b2_f3, b2_f5, b2_f2):
    # matches the worked example: an induced witness on B2 is admissible in
    # shape exactly when the character is one-dimensional
    for A in (b2_f3, b2_f5, b2_f2):
        G = unit_group(A)
        for chi in char_table(G).irreducibles:
            w = gutkin_decompose(A, chi)
            B = Subalgebra(A, w.subalgebra_rows)
            assert is_admissible_shape(InductionDatum(A, B)) == (chi.degree == 1)
