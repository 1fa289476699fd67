"""Exception types shared across the package.

Every error raised on bad input derives from :class:`IetkitError`, which is a
``ValueError`` so that generic callers can catch it without importing this
module.  :class:`LemmaViolation` is different in kind: it signals that an
internal consistency check failed (a certified-simple curve turned out to
self-intersect), which indicates a bug and should never be caught and ignored.
"""

from __future__ import annotations


class IetkitError(ValueError):
    """Base class for all input errors raised by this package."""


class NotABijection(IetkitError):
    """The given map is not a bijection of {1..d}."""


class EmptyResult(IetkitError):
    """An operation would produce an empty object (e.g. removing every symbol)."""


class InvalidSize(IetkitError):
    """A size or count parameter is outside its admissible range."""


class NonPositiveLength(IetkitError):
    """A length vector entry is zero or negative."""


class DimensionMismatch(IetkitError):
    """Vector lengths disagree with the permutation size."""


class OutOfDomain(IetkitError):
    """A point lies outside the half-open interval [0, |I|), or a scalar is
    not a finite rational."""


class InvalidBound(IetkitError):
    """An iteration bound or schedule is empty, non-positive, or not
    increasing; or a scan has a bound that is not finite, an empty range, a
    range whose grid step overflows, or an empty grid."""


class DegenerateSegment(IetkitError):
    """A segment's endpoints coincide."""


class NonPositiveParameter(IetkitError):
    """A curve parameter that must be positive is not."""


class ReduciblePermutation(IetkitError):
    """The operation requires an irreducible permutation."""


class DomainViolation(IetkitError):
    """A scanned curve leaves its positivity domain at some grid point."""


class LemmaViolation(AssertionError):
    """A strictly monotone slope vector produced a self-intersecting curve.

    This would falsify the convexity criterion itself, so it is an
    ``AssertionError``: loud, and not silenced by ``except ValueError``.
    """
