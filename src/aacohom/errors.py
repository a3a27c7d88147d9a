"""Exception types and the record base shared across the package."""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class annotations, in order.

    A class value of a field is its default.  Fields live in the instance
    ``__dict__`` (``vars`` and ``cached_property`` work) and cannot be
    assigned or deleted.  Records are equal when of one class with equal
    fields, hash as their fields and print as ``Name(field=value, ...)``.  A
    record that checks its input defines ``__init__`` and passes the checked
    values on to this one.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)  # a tuple, or the one field

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):  # keywords and defaults
            args = list(args)
            for name in cls._fields[len(args):]:
                if name in kwargs:
                    args.append(kwargs.pop(name))
                elif hasattr(cls, name):
                    args.append(getattr(cls, name))
                else:
                    raise TypeError(f"{cls.__name__} misses the field {name!r}")
            if kwargs or len(args) > len(cls._fields):
                raise TypeError(f"{cls.__name__} has only the fields {cls._fields}")
        # one attribute at a time, not through __dict__, which keeps CPython's
        # compact instance layout and so its fast attribute reads
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CheckFailure(Exception):
    """A mathematical check failed; the CLI exits 1 on these and 2 on any
    other ValueError."""


class DimensionMismatchError(ValueError):
    """Two forms with different ambient dimensions were combined."""


class UnsupportedModeError(ValueError):
    """The requested operation is not defined for this weight mode."""


class SizeLimitError(ValueError):
    """The requested computation exceeds the built-in size guard."""


class NotACocycleError(CheckFailure, ValueError):
    """A form that was required to be closed is not."""


class InvalidSymplecticFormError(CheckFailure, ValueError):
    """A user-supplied 2-form is not closed or not nondegenerate."""


class StructureViolationError(CheckFailure, ValueError):
    """A Lefschetz matrix does not match its predicted block structure.

    Carries the first differing entry as (row, col, expected, got).
    """

    def __init__(self, row, col, expected, got):
        self.row = row
        self.col = col
        self.expected = expected
        self.got = got
        super().__init__(
            f"structure mismatch at entry ({row}, {col}): "
            f"expected {expected}, got {got}"
        )


class InvariantViolationError(CheckFailure, RuntimeError):
    """An exact check contradicted a theorem; signals an implementation bug."""


class InvalidParameterError(ValueError):
    """A numeric parameter violates its precondition."""


class CertificateFailureError(CheckFailure, ValueError):
    """A lattice certificate could not be established: two t-values have
    units in one quadratic field."""


class NoHarmonicRepresentativeError(CheckFailure, RuntimeError):
    """No harmonic representative exists for the given cohomology class."""
