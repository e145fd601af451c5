"""Exception types shared across the package, the integer reader that
scenario and model-descriptor parsing share, the element limit and the
base of the immutable value types.

Everything user-triggerable raises one of these; internal invariant
violations use plain AssertionError.
"""

import os


class TreecloseError(Exception):
    """Base class for all package errors."""


class ValidationError(TreecloseError):
    """A structured object failed its consistency check."""


class CenterMismatch(TreecloseError):
    """Germ composition where the inner image center differs from the outer source center."""


class RadiusMismatch(TreecloseError):
    """Germ composition of unequal radii."""


class NotContained(TreecloseError):
    """Requested restriction ball is not contained in the germ's domain."""


class BadElement(TreecloseError):
    """An element fails the model's membership requirements."""


class DegreeMismatch(TreecloseError):
    """Two models act on trees of different degree."""


class NotStabilized(TreecloseError):
    """A germ expected to stabilize a point set moves it."""


class TooLarge(TreecloseError):
    """An enumeration passed the element limit (see max_elements)."""


class RadiusTooSmall(TreecloseError):
    """Germ radius is too small for the requested legality level."""


class AmplitudeMismatch(TreecloseError):
    """Translation amplitude does not match the displacement equation."""


class FactorOutsideGroup(TreecloseError):
    """A prescribed factor is not realizable inside the group's fixators."""


class NotRegular(TreecloseError):
    """Tree degree below 3 is rejected."""


class SingularBasis(TreecloseError):
    """Lattice basis with zero determinant."""


class NotIntegral(TreecloseError):
    """Matrix expected to have p-integral entries does not."""


def as_int(value, what):
    # int() would read a bool as 0 or 1 and truncate a float
    if isinstance(value, (bool, float)):
        raise ValidationError(f"{what} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an integer") from None


def read_int(data, key, default=None, where="scenario"):
    """data[key] as an integer; default when absent, required when None."""
    if key not in data:
        if default is None:
            raise ValidationError(f"{where} is missing {key!r}")
        return default
    return as_int(data[key], repr(key))


def max_elements():
    """The most elements one enumeration may hold: TREECLOSE_MAX_ELEMENTS."""
    limit = as_int(os.environ.get("TREECLOSE_MAX_ELEMENTS", 10**6), "TREECLOSE_MAX_ELEMENTS")
    if limit < 0:
        raise ValidationError("TREECLOSE_MAX_ELEMENTS must not be negative")
    return limit


class Record:
    """An immutable value, as a frozen dataclass is: equal to a record of its
    own class with equal fields, hashed as the tuple of its fields, printed as
    Name(field=value, ...). Subclasses list their fields in _fields."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(zip(self._fields, values), _key=values)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"
