"""Exact arithmetic: echelon linear algebra mod p and cyclotomic numbers.

No floating point anywhere: vectors and matrices mod p are tuples of int
residues, and cyclotomic numbers carry Fraction coefficients over the power basis
z^0 .. z^(m-1), kept in the normal form obtained by reducing modulo the
m-th cyclotomic polynomial.

Every Cyclotomic is reduced mod Phi_m when it is constructed, so each
arithmetic operation on Cyclotomic values pays one reduction, except scaling
by a rational, which keeps the normal form. Character arithmetic (brw.chars)
therefore sums unreduced group-ring vectors in Z[C_m] (Q[C_m] for rational
class functions) and builds a Cyclotomic only for each final scalar: one
reduction per inner product, orthogonality sum or induced value.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CertificationFailure, DivisionByZero, InvalidConductor

SUPPORTED_PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------------------
# modular linear algebra on plain int rows (workhorse; any prime modulus)
# ---------------------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


class Cyclotomic:
    """Element of Q(zeta_m) on the power basis zeta^0 .. zeta^(m-1).

    Stored in normal form: the representing polynomial is reduced modulo the
    m-th cyclotomic polynomial, so equality (at a common conductor) is plain
    coefficient equality. Coefficients are ints where possible, Fractions
    otherwise; no floats are accepted.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        if not isinstance(m, int) or m < 1:
            raise InvalidConductor(f"conductor must be a positive integer, got {m}")
        c = [_coeff(x) for x in coeffs]
        if len(c) > m:
            # fold exponents >= m back via zeta^m = 1 before reducing
            folded = [0] * m
            for k, x in enumerate(c):
                folded[k % m] += x
            c = folded
        else:
            c += [0] * (m - len(c))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(_coeff(x) for x in self._reduce(c, m)))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def _reduce(c, m):
        """Reduce the coefficient list c (length m) mod Phi_m in place; returns c."""
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        for k in range(len(c) - 1, deg - 1, -1):
            f = c[k]
            if f:
                c[k] = 0
                for i in range(deg):
                    c[k - deg + i] -= f * phi[i]
        return c

    # constructors -----------------------------------------------------------
    @staticmethod
    def zero(m=1):
        return Cyclotomic(m, [])

    @staticmethod
    def one(m=1):
        return Cyclotomic(m, [1])

    @staticmethod
    def root(m, k=1):
        """zeta_m^k."""
        if not isinstance(m, int) or m < 1:
            raise InvalidConductor(f"conductor must be a positive integer, got {m}")
        c = [0] * m
        c[k % m] = 1
        return Cyclotomic(m, c)

    @staticmethod
    def from_rational(q):
        return Cyclotomic(1, [q])

    # arithmetic -------------------------------------------------------------
    def _common(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        L = self.m * other.m // gcd(self.m, other.m)
        return self.embed(L), other.embed(L)

    def embed(self, m2):
        """Rewrite at conductor m2 (m must divide m2)."""
        if m2 == self.m:
            return self
        if m2 % self.m:
            raise InvalidConductor(f"{self.m} does not divide {m2}")
        step = m2 // self.m
        c = [0] * m2
        for k, x in enumerate(self.coeffs):
            c[k * step] = x
        return Cyclotomic(m2, c)

    def __add__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._common(other)
        return Cyclotomic(a.m, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return Cyclotomic.from_rational(other) - self

    def __neg__(self):
        return Cyclotomic(self.m, [-x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = object.__new__(Cyclotomic)   # a scaled normal form is one
            object.__setattr__(out, "m", self.m)
            object.__setattr__(out, "coeffs", tuple(_coeff(x * other) if x else 0
                                                    for x in self.coeffs))
            return out
        a, b = self._common(other)
        m = a.m
        out = [0] * m
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[(i + j) % m] += x * y
        return Cyclotomic(m, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        raise TypeError("only rational division is supported")

    # predicates and views ----------------------------------------------------
    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.is_rational():   # a normal form is rational exactly when its number is
            return other == self.coeffs[0]
        if other.is_rational():
            return False
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def key(self, m2):
        """Hashable canonical key at conductor m2 (for dict/dedup use)."""
        return self.embed(m2).coeffs

    def __hash__(self):
        raise TypeError("hash Cyclotomic via .key(conductor)")

    def render(self, var="z"):
        """Human-readable form 'a0 + a1*z + a2*z^2 + ...' (nonzero terms only)."""
        terms = []
        for k, x in enumerate(self.coeffs):
            if x == 0:
                continue
            if k == 0:
                terms.append(str(x))
            else:
                z = var if k == 1 else f"{var}^{k}"
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

