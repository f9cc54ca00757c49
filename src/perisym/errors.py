"""Exception hierarchy shared by all perisym modules."""


class PerisymError(Exception):
    """Base class for all domain errors raised by this package."""


class ArityMismatch(PerisymError):
    """Operands live in Laurent rings with different numbers of variables."""


class BadIndices(PerisymError):
    """Variable indices passed to a pair substitution are invalid."""


class NotDivisible(PerisymError):
    """Exact division failed: the divisor does not divide the dividend."""


class NotDominant(PerisymError):
    """A weight expected to be weakly decreasing is not."""


class BeadCollision(PerisymError):
    """A weight diagram's bead positions are not strictly decreasing."""


class NotSymmetric(PerisymError):
    """A polynomial expected to be S_n-invariant is not."""


class NotMember(PerisymError):
    """A polynomial fails the supersymmetry (t-independence) condition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInKernel(PerisymError):
    """A polynomial has a nonzero evaluation image, so it cannot be
    decomposed over thin Kac supercharacters."""


class LeviIncompatible(PerisymError):
    """A weight is not constant on the blocks of a parabolic datum."""


class WindowTooSmall(PerisymError):
    """No preimage exists within the search window."""


class NoIntegerSolution(PerisymError):
    """The lift system is rationally solvable but has no integer solution
    within the search window."""


class LiftStalled(PerisymError):
    """A round of the Euler-characteristic lift left the filtration level
    of its target where it was."""
