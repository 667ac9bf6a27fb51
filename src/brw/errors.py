"""Exception hierarchy. Every error raised by the workbench derives from BrwError,
and every precondition is checked with raise, never with assert, which python -O
drops. The TypeError of Character.__hash__ and LinearChar.__hash__, the
AttributeError of Cyclotomic.__setattr__ and the TypeError of exact._coeff are
Python protocol errors (unhashable, immutable, not a number) and stay as they are."""


class BrwError(Exception):
    pass


class DivisionByZero(BrwError, ZeroDivisionError):
    """Inversion of zero mod p, or of a singular matrix mod p."""


class InvalidConductor(BrwError):
    """A conductor must be a positive integer, and a multiple of the one it rewrites."""


class SpecError(BrwError):
    """Malformed algebra spec (JSON ingestion)."""


class NotSplitBasic(BrwError):
    """Algebra failed split-basic certification."""


class NotBimodule(BrwError):
    """Subspace not closed under the diagonal bimodule action."""


class TooLarge(BrwError):
    """A configured size cap was exceeded."""


class NotInsideRadical(BrwError):
    pass


class NotNormal(BrwError):
    pass


class NotSubgroup(BrwError):
    pass


class GroupMismatch(BrwError):
    pass


class NotInvariant(BrwError):
    """Character fails the required invariance (P- or G-invariance)."""


class PreconditionFailure(BrwError):
    pass


class NotOverTheta(BrwError):
    """Character does not lie over the given linear character."""


class LiftFailure(BrwError):
    """Modular-to-cyclotomic lift produced an inconsistent table (assertion-level)."""


class NoExtension(BrwError):
    """No extension of the invariant character exists (assertion-level)."""


class CertificationFailure(BrwError):
    """A mathematical certificate failed: a stabilizer is not the unit group of
    a subalgebra, or an identity the construction relies on does not hold."""


class DecompositionFailure(BrwError):
    """Constructive decomposition failed (would contradict the finite theorem)."""


class VerificationFailure(BrwError):
    """A report's check failed: the brute search found an irreducible with no
    witness, the unitary/twist factorization does not multiply back to its
    input, or a gutkin worker ended without sending its result."""
