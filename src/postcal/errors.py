"""Exception types shared across the package, and the one checker of a
value's kind and range.

An error holds a bare cause and ``where``, the parts that place it,
outermost first, each with its separator (``"replication 0, "``); it reads
as the parts, then the cause.  A layer adds what it knows with
``error.within``, which skips a part the error holds, so none is said twice.

A kind returns its value converted (``real`` makes 2 and "2" 2.0) or raises
a ValueError or TypeError, and is named for what it accepts.  Each spec type
checks the values it holds with ``check_fields`` in its constructor, so a
refusal names the field: ``prior_df: expected positive, got -1``.
"""

import math


class PostcalError(Exception):
    """Base class for package errors: a ``cause`` and the context parts
    ``where``, outermost first."""

    def __init__(self, cause: str, *where: str):
        super().__init__(cause)
        self.cause, self.where = cause, where

    def within(self, *parts: str) -> "PostcalError":
        """This error, ``parts`` put in front of its context, outermost
        first; a part that it holds already or that is empty is left out."""
        self.where = tuple(p for p in parts if p and p not in self.where) + self.where
        return self

    def __str__(self) -> str:
        return "".join(self.where) + self.cause


class ConfigError(PostcalError):
    """Invalid configuration document or command-line usage."""


class DataError(PostcalError):
    """Input records or metadata violate a structural requirement."""


class ConvergenceError(DataError):
    """No fit passed the R-hat gate, so there is nothing to report."""


class RankDeficiencyError(PostcalError):
    """The calibration cross-product matrix is rank deficient; the message
    names the (variable, domain) constraint blocks that could not be
    pivoted, typically empty variable-by-domain cells."""


class NumericalError(PostcalError):
    """A numeric computation produced an unusable result.

    ``models`` holds the batch positions of the models at fault when a
    batched sampler call raises it.
    """

    def __init__(self, cause: str, *where: str, models=()):
        super().__init__(cause, *where)
        self.models = tuple(models)


class LinkSelectionError(PostcalError):
    """No admissible ratio denominator exists for a non-calibration cell."""


def integer(value) -> int:
    """``int(value)`` that neither truncates nor reads a boolean: 3, 3.0 and
    "3" are 3; 2.9, NaN and true are a ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def real(value) -> float:
    """``float(value)`` that is finite and does not read a boolean: 2, 2.5
    and "2.5" are 2.0 and 2.5; NaN, an infinity and true are a ValueError
    (``float(True)`` would be 1.0)."""
    if isinstance(value, bool) or not math.isfinite(value := float(value)):
        raise ValueError(value)
    return value


def restricted(base, name: str, test):
    """The kind ``base`` whose values pass ``test``, named ``name``."""

    def kind(value):
        if not test(value := base(value)):
            raise ValueError(value)
        return value

    kind.__name__ = name
    return kind


positive = restricted(real, "positive", lambda v: v > 0)
nonnegative = restricted(real, "nonnegative", lambda v: v >= 0)
# an interval's nominal level, and the share of each stratum a sample draws
nominal_level = restricted(real, "a real in (0, 1)", lambda v: 0 < v < 1)
sampling_fraction = restricted(real, "a real in (0, 1]", lambda v: 0 < v <= 1)


def between(lo: float, hi: float):
    """The kind ``real`` in [lo, hi]."""
    return restricted(real, f"a real in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


def at_least(lo: int):
    """The kind ``integer`` at least ``lo``."""
    return restricted(integer, f"at least {lo}", lambda v: v >= lo)


def one_of(*choices):
    """The kind of a value among ``choices``, kept as it is."""
    return restricted(lambda v: v, " or ".join(map(repr, choices)), lambda v: v in choices)


def checked(value, kind, where: str, error: type[PostcalError] = DataError):
    """``kind(value)``; a value that ``kind`` refuses is an ``error`` naming
    ``where``, an integer too large for a float among them; a package error
    that a kind raises for a part of it (``[1]: ``) gains ``where`` in front."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"expected {kind.__name__}, got {value!r}", f"{where}: ") from None
    except PostcalError as exc:
        raise exc.within(where)


def distinct(values, where: str, error: type[PostcalError] = ConfigError, key: str = "", taken=None, what="") -> None:
    """An ``error`` for the first of ``values`` that repeats an earlier one,
    naming its entry of the list ``where``: ``domains[1]: 'd1' repeats [0]``,
    or with ``key`` ``.id``, ``strata[1].id: 's1' repeats [0]``; or that
    ``taken`` holds, which says what holds each name of the lists before
    (``outcomes[0].name: 'hours' is a calibration variable``) and gains
    ``values`` as ``what``."""
    taken = {} if taken is None else taken
    for i, value in enumerate(values):
        if value in taken:
            raise error(f"{value!r} {taken[value]}", f"{where}[{i}]{key}: ")
        taken[value] = f"repeats [{i}]"
    taken.update(dict.fromkeys(values, what))


def check_fields(spec, error: type[PostcalError] = DataError, **kinds) -> None:
    """Set each field of the (frozen) dataclass ``spec`` that ``kinds``
    names to its kind of the value it holds; the first value refused is an
    ``error`` naming the field."""
    for name, kind in kinds.items():
        object.__setattr__(spec, name, checked(getattr(spec, name), kind, name, error))
