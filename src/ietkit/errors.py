"""Exception types shared across the package, and its frozen-record decorator.

Every error raised on bad input derives from :class:`IetkitError`, which is a
``ValueError`` so that generic callers can catch it without importing this
module.  :class:`LemmaViolation` is different in kind: it signals that an
internal consistency check failed (a certified-simple curve turned out to
self-intersect), which indicates a bug and should never be caught and ignored.

:func:`_record` makes the package's immutable value types, and :class:`_lazy`
their attributes derived on first read.  They live here because every
library module already imports this one, and the one module it imports,
``operator``, is one that ``collections`` and ``functools`` have already
loaded, so a command loads no more modules for them.  Likewise
:func:`_quoted`, which bounds the value that an error message quotes.
"""

from __future__ import annotations

from operator import attrgetter

# An error message quotes a rejected value's text up to this many characters.
_QUOTED_MAX = 100


def _quoted(value: object, show=repr) -> str:
    """``show(value)``, or past ``_QUOTED_MAX`` characters only the value's
    type and length, so that a huge input does not make a huge message.  An
    int past the interpreter's digit limit, which has no text, is named by
    that limit.

    >>> from fractions import Fraction
    >>> _quoted("1/0"), _quoted(Fraction(1, 2), str)
    ("'1/0'", '1/2')
    >>> _quoted("1" + "0" * 4400), _quoted(10**4000)
    ('(a str of 4401 characters)', '(an int of 4001 characters)')
    >>> _quoted(Fraction(1, 10**5000), str)
    '(a Fraction past the digit limit)'
    """
    name = type(value).__name__
    name = f"an {name}" if name[0] in "aeiou" else f"a {name}"
    try:
        text = show(value)
    except ValueError:
        return f"({name} past the digit limit)"
    if len(text) <= _QUOTED_MAX:
        return text
    return f"({name} of {len(str(value))} characters)"


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class _lazy:
    """An attribute computed by the decorated method on first read, then kept.

    The value is stored in the instance ``__dict__`` under the method's
    name, where later reads find it before this descriptor, which has no
    ``__set__``.  Read on the class, the attribute is the descriptor, with
    the method's docstring.  This is ``functools.cached_property`` without
    its lock: before Python 3.12 that takes one class-wide ``RLock`` on
    every first read, and 3.12 removed it for speed.  Two threads that race
    on a first read here both compute the value, which is the same.  A
    criterion call makes three first reads.

    >>> class Box:
    ...     @_lazy
    ...     def square(self):
    ...         "The side, squared."
    ...         print("computing")
    ...         return 9
    >>> box = Box()
    >>> box.square, box.square, box.__dict__, Box.square.__doc__
    computing
    (9, 9, {'square': 9}, 'The side, squared.')
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _record(cls):
    """Make ``cls`` a frozen record of its own annotated fields, in order.

    These are the semantics of a frozen standard-library data class, whose
    module would load ``inspect`` and ``ast`` at start-up and compile six
    methods per class.  ``__init__`` takes the fields positionally or by
    keyword, then calls ``__post_init__`` if the class has one.  Records are
    equal when they are of one class with equal field tuples, and hash as
    that tuple; ``repr`` reads ``Name(field=value, ...)``; ``__match_args__``
    names the fields.  Assigning or deleting an attribute raises
    ``AttributeError``, while ``_lazy`` attributes and pickling, which write
    the instance ``__dict__`` directly, still work.  Only ``__init__`` is
    compiled per class, as ``collections.namedtuple`` compiles ``__new__``.
    It writes each field into the instance ``__dict__``, so no field goes
    through ``__setattr__``: on CPython 3.11 that builds a ``Witness`` in
    about half the time of one ``object.__setattr__`` call per field.  The
    price is paid on reads: a ``__dict__`` filled this way keeps its values
    apart from the class's shared keys, where 3.11's specialised attribute
    lookup does not look, so a field read costs about 20 ns more.  Records
    are built more often than their fields are read on the paths that make
    many of them, the criterion and the connection search.

    >>> @_record
    ... class Pair:
    ...     a: int
    ...     b: int
    >>> Pair(1, b=2), Pair(1, 2) == Pair(1, 2), Pair.__match_args__
    (Pair(a=1, b=2), True, ('a', 'b'))
    >>> Pair(1, 2).a = 3
    Traceback (most recent call last):
        ...
    AttributeError: cannot assign to field 'a'
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    lines = [f"def __init__(self, {', '.join(names)}):", "    fields = self.__dict__"]
    lines += [f"    fields[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    # The field tuple, read in C; attrgetter of one name returns the value.
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda record: (get(record),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, __eq__, __hash__, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls.__match_args__ = names
    return cls


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
