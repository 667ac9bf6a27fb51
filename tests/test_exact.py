import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from brw.errors import DivisionByZero, InvalidConductor, TooLarge
from brw.exact import (MILLER_RABIN_BASES, MILLER_RABIN_BOUND, SUPPORTED_PRIMES, Cyclotomic,
                       cyclotomic_polynomial, is_prime, kernel_basis, mod_inv, normal_form,
                       rref)
from helpers import Cyc, conjugate, euler_phi, trace


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_mod_inv_of_zero(p):
    for a in (0, p, -2 * p):
        with pytest.raises(DivisionByZero):
            mod_inv(a, p)
    assert all(a * mod_inv(a, p) % p == 1 for a in range(1, p))


def test_is_prime_against_trial_division():
    primes = []
    for n in range(2 * 10**5):
        prime = n >= 2 and all(n % q for q in primes if q * q <= n)
        if prime:
            primes.append(n)
        assert is_prime(n) == prime, n


def test_is_prime_on_strong_pseudoprimes_and_at_its_bound():
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37: all composite
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**18 + 3)
    # the bound is itself a strong pseudoprime to every base: not decided
    assert all(MILLER_RABIN_BOUND % b for b in MILLER_RABIN_BASES)
    with pytest.raises(TooLarge):
        is_prime(MILLER_RABIN_BOUND)
    assert not is_prime(2 * MILLER_RABIN_BOUND) and not is_prime(41 * MILLER_RABIN_BOUND)


def test_cyclotomic_examples():
    z4 = Cyc.root(4)
    assert z4 * z4 == -1
    assert (Cyc.one() + Cyc.root(3, 1) + Cyc.root(3, 2)).is_zero()
    z6 = Cyclotomic.root(6)
    assert Cyclotomic(6, z6.coeffs) == z6


def test_cyclotomic_normal_form_idempotent():
    # the constructor reduces mod Phi_12 (degree phi(12) = 4); rebuilding a
    # reduced number from its coefficients changes nothing
    x = Cyclotomic(12, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    assert not any(x.coeffs[euler_phi(12):])
    y = Cyclotomic(x.m, x.coeffs)
    assert y == x and y.coeffs == x.coeffs


def test_roots_of_unity_order():
    for m in range(1, 25):
        z = Cyc.root(m)
        acc = Cyc.one(m)
        for _ in range(m):
            acc = acc * z
        assert acc == 1, f"zeta_{m}^{m} != 1"


def test_conjugation_and_trace():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 16)
        x = Cyc(m, [rng.randrange(-4, 5) for _ in range(m)])
        norm = x * conjugate(x)
        assert trace(norm) >= 0
        assert conjugate(conjugate(x)) == x


def test_invalid_conductor():
    with pytest.raises(InvalidConductor):
        Cyclotomic(0, [])
    with pytest.raises(InvalidConductor):
        Cyclotomic.root(-2)


def test_rational_arithmetic():
    x = Cyc(5, [Fraction(1, 2), 0, 0, 0, 0])
    assert (x + x).rational() == 1
    assert (x / 2).rational() == Fraction(1, 4)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_echelon_examples():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref(ident, 2) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 2))
    assert kernel_basis(ident, 3, 2) == ()
    zero = [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert rref(zero, 3) == ((), ())
    assert len(kernel_basis(zero, 4, 3)) == 4
    m = [[1, 1], [2, 2]]  # second row is twice the first
    assert rref(m, 3) == (((1, 1),), (0,))
    assert kernel_basis(m, 2, 3) == ((1, 2),)


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice(SUPPORTED_PRIMES)
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        red, _ = rref(m, p)
        ker = kernel_basis(m, cols, p)
        assert len(red) + len(ker) == cols
        # kernel vectors actually lie in the kernel
        for krow in ker:
            for mrow in m:
                assert sum(a * b for a, b in zip(mrow, krow)) % p == 0


def test_kernel_basis_is_reduced():
    rows = [[1, 1, 0, 1], [0, 0, 1, 1]]
    ker = kernel_basis(rows, 4, 2)
    red, _ = rref(ker, 2)
    assert tuple(ker) == red


def test_rational_scaling_keeps_the_normal_form():
    # normal_form of a rationally scaled vector against the scaled normal form
    # (the way induce and the Clifford step scale their class sums before any
    # reduction), coefficient types included
    rng = random.Random(17)
    for m in range(1, 43):
        for _ in range(4):
            v = [(e, rng.randrange(-9, 10)) for e in range(rng.randrange(2 * m + 1))]
            x = normal_form(v, m)
            q = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 13), rng.randrange(1, 13))
            n = rng.choice([1, 2, 3, 6, -4, 35])
            for got, want in ((normal_form([(e, c * q) for e, c in v], m), (Cyc(m, x) * q).coeffs),
                              (normal_form([(e, c * n) for e, c in v], m), (Cyc(m, x) * n).coeffs),
                              (normal_form([(e, c / q) for e, c in v], m), (Cyc(m, x) / q).coeffs),
                              (normal_form([(e, Fraction(c, n)) for e, c in v], m),
                               (Cyc(m, x) / n).coeffs),
                              (normal_form([], m), (Cyc(m, x) * 0).coeffs)):
                assert got == want
                assert [type(c) for c in got] == [type(c) for c in want]


def random_vector(rng, m):
    """A sparse vector in Q[C_m] with repeated exponents, exponents >= m and
    below 0, negative coefficients and Fraction coefficients."""
    return [(rng.randrange(-2 * m, 3 * m), rng.choice(
        [rng.randrange(-5, 6), Fraction(rng.randrange(-7, 8), rng.randrange(1, 6))]))
        for _ in range(rng.randrange(6))]


def test_normal_form_against_the_cyclotomic_oracle():
    # normal_form(vec, m, L) against sum x * zeta_L^(e L/m) in Cyc arithmetic,
    # and against every complex embedding: the normal form has degree below
    # phi(L), and such a polynomial is fixed by its values at the primitive
    # L-th roots of unity
    rng = random.Random(26)
    for m in range(1, 61):
        for L in sorted({m, 2 * m, 3 * m}):
            if L > 120:
                continue
            for _ in range(3):
                vec = random_vector(rng, m)
                got = normal_form(vec, m, L)
                want = sum((x * Cyc.root(L, e * (L // m)) for e, x in vec), Cyc.zero(L))
                assert got == want.embed(L).coeffs, (vec, m, L)
                assert [type(c) for c in got] == [type(c) for c in want.embed(L).coeffs]
                assert len(got) == L and not any(got[euler_phi(L):])
                for a in (a for a in range(1, L + 1) if gcd(a, L) == 1):
                    z = cmath.exp(2j * cmath.pi * a / L)
                    assert abs(sum(float(x) * z ** (e * (L // m)) for e, x in vec)
                               - sum(float(c) * z ** k for k, c in enumerate(got))) < 1e-6


def test_equality_against_the_lcm_conductor():
    # __eq__ settles a pair with a rational normal form on either side without
    # a common conductor; it must agree with coefficient equality at lcm(m, m2)
    # on rationals, on sums of roots that reduce to rationals, and on equal
    # irrational numbers written at different conductors
    def samples(m):
        def z(k):
            return Cyc.root(m, k)
        return [Cyc(m, [q]) for q in (0, 1, -1, Fraction(1, 3))] + [
            z(1), z(-1) + z(1), z(0) + z(1), z(m // 2), z(2) * 3, -z(m // 3)]

    compared = rational_pairs = 0
    for m in range(1, 43):
        xs = samples(m)
        for m2 in sorted({1, 2, 3, 4, 6, m, 2 * m}):
            L = m * m2 // gcd(m, m2)
            ys = samples(m2)
            at_l = [y.key(L) for y in ys]
            for x in xs:
                xl = x.key(L)
                for y, yl in zip(ys, at_l):
                    assert (x == y) == (y == x) == (xl == yl), (x, y)
                    rational_pairs += x.is_rational() or y.is_rational()
                    compared += 1
            for x in xs:
                for q in (0, 1, -1, 2, Fraction(1, 3), Fraction(-1, 3)):
                    assert (x == q) == (x.key(m) == Cyclotomic(m, [q]).coeffs), (x, q)
    assert compared > rational_pairs > 0
