"""Exception types shared across the package."""


class WeylOrdersError(Exception):
    """Base class for all errors raised by this package."""


class TypeParseError(WeylOrdersError):
    """A type expression could not be parsed; the message names the offending token."""


class FactorizationLimitError(WeylOrdersError):
    """Integer too large for the desk-scale factorization guarantee."""


class NotAWeylFamily(WeylOrdersError):
    """A polynomial family is inconsistent with being ch(W) for any Weyl group."""


class NotCoincident(WeylOrdersError):
    """The two types do not have equal degree multisets."""


class NoPeelingElement(WeylOrdersError):
    """A pair is not reduced with equal degrees at its top degree: the degree is
    found on one side only, or one of its factors is on both sides."""


class CacheInvalid(WeylOrdersError):
    """A cache file failed an integrity certificate; the message names it."""


class FieldMismatch(WeylOrdersError):
    """Operands belong to different coefficient fields."""
