"""Exception types raised across the package.

Every error is a subclass of BentkitError, so callers (notably the CLI)
can distinguish bad input from genuine bugs with one except clause.
"""


class BentkitError(Exception):
    """Base class for all input/precondition errors in this package."""


# -- field construction and arithmetic ------------------------------------

class UnsupportedDegree(BentkitError):
    pass


class ReducibleModulus(BentkitError):
    pass


class NotInSubfield(BentkitError):
    pass


class ZeroElement(BentkitError):
    pass


class DimensionTooSmall(BentkitError):
    pass


class NoSolution(BentkitError):
    pass


# -- Boolean functions and transforms --------------------------------------

class OddDimension(BentkitError):
    pass


class NotBent(BentkitError):
    pass


class FieldMismatch(BentkitError):
    pass


# -- multivariate polynomials ----------------------------------------------

class DegreeOutOfRange(BentkitError):
    pass


class ZeroMask(BentkitError):
    pass


class ZeroCoefficient(BentkitError):
    pass


class ArityMismatch(BentkitError):
    pass


# -- family constructors ----------------------------------------------------

class PreconditionViolated(BentkitError):
    pass


class BadLambda(BentkitError):
    pass


class NotNormal(BentkitError):
    pass


class NotRotationSymmetric(BentkitError):
    pass


class NotIndependent(BentkitError):
    pass


class BaseNotBent(BentkitError):
    pass


class BadDimension(BentkitError):
    pass


class LambdaConstraintViolated(BentkitError):
    pass


class GcdViolated(BentkitError):
    pass


class SingularPermutation(BentkitError):
    pass


class BadDivisor(BentkitError):
    pass


class NoModularInverse(BentkitError):
    pass


# -- command-line and spec input ------------------------------------------

class BadSpec(BentkitError):
    pass


class BadRange(BentkitError):
    pass


class BadArgument(BentkitError):
    """A command line that names no command, or an argument the command
    lacks, does not take, or cannot read."""


class EmptyExpectation(BentkitError, ValueError):
    """Also a ValueError, which callers caught before it was a BentkitError."""
