"""Exact arithmetic: echelon linear algebra mod p and cyclotomic numbers.

No floating point anywhere: vectors and matrices mod p are tuples of int
residues, and cyclotomic numbers carry Fraction coefficients over the power basis
z^0 .. z^(m-1), kept in the normal form obtained by reducing modulo the
m-th cyclotomic polynomial.

Character values (brw.chars) are sparse group-ring vectors ((e, x), ...) in
Z[C_m] (Q[C_m] for rational class functions), summed unreduced; normal_form
is the one reduction mod Phi, run only where a value is compared, rendered or
read as a rational. A Cyclotomic is that normal form as a value: rendering,
hashable keys and the local-field phases use it, and it has no arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import CertificationFailure, DivisionByZero, InvalidConductor, TooLarge

SUPPORTED_PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------------------
# modular linear algebra on plain int rows (workhorse; any prime modulus)
# ---------------------------------------------------------------------------

MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime: the strong probable-prime test to every base of
    MILLER_RABIN_BASES, which decides it below MILLER_RABIN_BOUND. At or above
    the bound an n with no factor among the bases raises TooLarge."""
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n >= MILLER_RABIN_BOUND:
        raise TooLarge(f"primality of {n} is decided only below {MILLER_RABIN_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inv(a, p):
    a %= p
    if a == 0:
        raise DivisionByZero(f"inverse of 0 mod {p}")
    return pow(a, p - 2, p)


def rref(rows, p):
    """Reduced row echelon form mod p.

    Returns (rows, pivots): nonzero rows only, each pivot entry 1 and the
    pivot column cleared elsewhere. rows come out as tuples sorted by pivot.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = mod_inv(work[r][c], p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c] % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(x % p for x in row) for row in work[:r]), tuple(pivots)


def reduce_vector(vec, basis_rows, pivots, p):
    """Residual of vec after subtracting its projection onto the RREF basis.

    Also returns the coefficient of each basis row (valid because the basis
    is reduced: the coefficient is just the entry at the pivot column).
    """
    res = [x % p for x in vec]
    coeffs = []
    for row, c in zip(basis_rows, pivots):
        f = res[c]
        coeffs.append(f)
        if f:
            res = [(x - f * y) % p for x, y in zip(res, row)]
    return tuple(res), tuple(coeffs)


def kernel_basis(rows, ncols, p):
    """RREF basis of the right kernel of the matrix with the given rows."""
    red, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    out, _ = rref(basis, p)
    return out


def mat_mul_vec(rows, vec, p):
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in rows)


def mod_matrix_inverse(rows, p):
    """Inverse of a square matrix mod p via Gauss-Jordan on [M | I]."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, p)
    if len(red) != n or pivots != tuple(range(n)):
        raise DivisionByZero("matrix is singular")
    return tuple(tuple(r[n:]) for r in red)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def _prime_factors(n):
    """Distinct prime factors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (little-endian coeff lists)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        if lead % den[-1]:
            raise CertificationFailure("polynomial division is not exact")
        q = lead // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num[:len(den) - 1]):
        raise CertificationFailure("polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of the m-th cyclotomic polynomial, little-endian."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _coeff(x):
    """Exact coefficient: ints stay ints, integral Fractions collapse to int."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact coefficient required, got {type(x).__name__}")


def normal_form(vec, m, L=None):
    """Normal form at conductor L (default m; m must divide L) of the sparse
    vector vec = ((e, x), ...) in Q[C_m], exponents read mod m: the
    coefficients on zeta_L^0 .. zeta_L^(L-1) of its image in Q(zeta_L),
    reduced mod Phi_L, so that two vectors give one number exactly when their
    normal forms at one L are equal. Ints stay ints and integral Fractions
    collapse to int. This is the one place values are reduced."""
    L = L or m
    step = L // m
    c = [0] * L
    for e, x in vec:
        c[e * step % L] += x
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    for k in range(L - 1, deg - 1, -1):
        f = c[k]
        if f:
            c[k] = 0
            for i in range(deg):
                c[k - deg + i] -= f * phi[i]
    return tuple(map(_coeff, c))


class Cyclotomic:
    """Element of Q(zeta_m) as its normal form at m (normal_form) on the power
    basis zeta^0 .. zeta^(m-1), so equality at a common conductor is plain
    coefficient equality. Coefficients are ints where possible, Fractions
    otherwise; no floats are accepted. It renders and keys a value and
    carries no arithmetic: brw computes on group-ring vectors.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        if not isinstance(m, int) or m < 1:
            raise InvalidConductor(f"conductor must be a positive integer, got {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", normal_form(enumerate(map(_coeff, coeffs)), m))

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def root(cls, m, k=1):
        """zeta_m^k."""
        if not isinstance(m, int) or m < 1:
            raise InvalidConductor(f"conductor must be a positive integer, got {m}")
        return cls(m, [0] * (k % m) + [1])

    def is_rational(self):
        return not any(self.coeffs[1:])

    def key(self, m2):
        """The normal form at conductor m2 (m must divide m2), a hashable key."""
        if m2 % self.m:
            raise InvalidConductor(f"{self.m} does not divide {m2}")
        return normal_form(enumerate(self.coeffs), self.m, m2)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        L = lcm(self.m, other.m)
        return self.key(L) == other.key(L)

    def __hash__(self):
        raise TypeError("hash Cyclotomic via .key(conductor)")

    def render(self):
        """Human-readable form 'a0 + a1*z + a2*z^2 + ...' (nonzero terms only)."""
        terms = []
        for k, x in enumerate(self.coeffs):
            if x == 0:
                continue
            if k == 0:
                terms.append(str(x))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if x == 1:
                    terms.append(z)
                elif x == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{x}*{z}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Cyc({self.m}; {self.render()})"
