"""Symbolic layer for smooth characters of a local field's multiplicative group.

A character of k^x = O^x x (uniformizer)^Z is modeled exactly as a finite-level
character of the unit residues (Z/p^k)^x together with the value at the
uniformizer, recorded as a positive rational modulus and a root-of-unity
phase. The unitary/twist factorization splits the modulus from the rest.
"""

from fractions import Fraction
from math import gcd, lcm

from .algebra import Subalgebra, cached_decomposition
from .errors import GroupMismatch, SpecError, TooLarge
from .exact import Cyclotomic, is_prime
from .groups import LinearChar, abelian_invariants, dual_characters


class ResidueUnits:
    """(Z/p^k)^x as a plain multiplicative group of integer residues.

    For k >= 1 the order (p-1) p^(k-1) is checked against cap, when one is
    given, first: before p is tested for primality and before any residue is
    enumerated.
    """

    def __init__(self, p, k, cap=None):
        # p^bit_length(cap) > cap, so a larger exponent need not be computed
        if (cap is not None and k > 0 and p > 1
                and (p - 1) * p ** min(k - 1, cap.bit_length()) > cap):
            raise TooLarge(f"|(Z/{p}^{k})^x| = {p - 1}*{p}^{k - 1} exceeds cap {cap}")
        if not is_prime(p):
            raise SpecError(f"residue characteristic must be a prime, got {p}")
        if k < 0:
            raise SpecError("level must be nonnegative")
        self.p = p
        self.k = k
        self.modulus = p ** k
        if k == 0:
            self.elements = (1,)
        else:
            self.elements = tuple(r for r in range(1, self.modulus) if gcd(r, p) == 1)
        self.index = {r: i for i, r in enumerate(self.elements)}

    @property
    def order(self):
        return len(self.elements)

    def mul(self, a, b):
        return (a * b) % self.modulus if self.k else 1

    def invariants(self):
        return abelian_invariants(list(self.elements), self.mul, 1 % max(self.modulus, 2))


def unit_characters(p, k, cap=None):
    """All characters of (Z/p^k)^x, ordered by exponent table."""
    group = ResidueUnits(p, k, cap)
    divisors, gens, dlog = group.invariants()
    return dual_characters(group, divisors, [dlog[r] for r in group.elements])


class SmoothCharLocal:
    """Smooth character of k^x: unit part at level k, value at the uniformizer.

    The uniformizer value is (r, phase) with r a positive rational and phase a
    root of unity zeta_pm^pe; the character is unitary exactly when r = 1.
    """

    __slots__ = ("p", "k", "unit_part", "r", "phase_m", "phase_e")

    def __init__(self, p, k, unit_part: LinearChar, r, phase_m=1, phase_e=0):
        r = Fraction(r)
        if r <= 0:
            raise SpecError("uniformizer modulus must be positive")
        if phase_m < 1:
            raise SpecError(f"phase conductor must be a positive integer, got {phase_m}")
        self.p = p
        self.k = k
        self.unit_part = unit_part
        self.r = r
        self.phase_m = phase_m
        self.phase_e = phase_e % phase_m

    @property
    def is_unitary(self):
        return self.r == 1

    def value(self, residue, val):
        """Value at u * pi^val: (modulus part, root-of-unity part), the phase
        a root of unity at L = lcm(unit conductor, phase conductor)."""
        unit = self.unit_part
        L = lcm(unit.m, self.phase_m)
        e = (unit.exps[unit.domain.index[residue]] * (L // unit.m)
             + self.phase_e * val * (L // self.phase_m))
        return self.r ** val, Cyclotomic.root(L, e)

    def mul(self, other):
        if (self.p, self.k) != (other.p, other.k):
            raise GroupMismatch("characters live on different residue levels")
        m = lcm(self.phase_m, other.phase_m)
        e = self.phase_e * (m // self.phase_m) + other.phase_e * (m // other.phase_m)
        return SmoothCharLocal(self.p, self.k, self.unit_part.mul(other.unit_part),
                               self.r * other.r, m, e)

    def __eq__(self, other):
        if not isinstance(other, SmoothCharLocal):
            return NotImplemented
        if (self.p, self.k, self.r) != (other.p, other.k, other.r):
            return False
        if self.unit_part != other.unit_part:
            return False
        # the phases as root exponents at their lcm conductor
        m = lcm(self.phase_m, other.phase_m)
        return self.phase_e * (m // self.phase_m) == other.phase_e * (m // other.phase_m)

    def __repr__(self):
        return (f"SmoothCharLocal(p={self.p}, k={self.k}, r={self.r}, "
                f"phase=z{self.phase_m}^{self.phase_e})")


def trivial_unit_part(group: ResidueUnits) -> LinearChar:
    return LinearChar(group, 1, [0] * group.order)


def factor_unitary(chi: SmoothCharLocal):
    """chi = chi_unitary * twist with chi_unitary of modulus one and the twist
    an unramified positive character (trivial unit part, no phase)."""
    chi_unitary = SmoothCharLocal(chi.p, chi.k, chi.unit_part, 1, chi.phase_m, chi.phase_e)
    twist = SmoothCharLocal(chi.p, chi.k, trivial_unit_part(chi.unit_part.domain), chi.r, 1, 0)
    return chi_unitary, twist


class LocalCharGroup:
    """Smooth characters of k^x at residue level k: the elementary divisors of
    (Z/p^k)^x, dual to the unit parts, and the uniformizer's free direction."""

    def __init__(self, p, k, cap=None):
        if k < 1:
            raise SpecError("character group needs level k >= 1")
        self.p = p
        self.k = k
        self.divisors = ResidueUnits(p, k, cap).invariants()[0]

    @property
    def unit_group_order(self):
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def summary(self):
        return {
            "p": self.p,
            "k": self.k,
            "unit_divisors": list(self.divisors),
            "unit_group_order": self.unit_group_order,
            "free_rank": 1,
        }


class InductionDatum:
    """Shape data of an induced-character witness: does B contain the diagonal?"""

    def __init__(self, algebra, subalgebra: Subalgebra):
        self.algebra = algebra
        self.subalgebra = subalgebra
        self.diag_contained = is_admissible_shape(self)

    def __repr__(self):
        return f"InductionDatum(dim B={self.subalgebra.dim}, diag={self.diag_contained})"


def is_admissible_shape(d: InductionDatum) -> bool:
    """Condition (i) of the admissibility criterion: D is contained in B."""
    dec = cached_decomposition(d.algebra)
    return all(d.subalgebra.contains(row) for row in dec.diagonal.rows)
