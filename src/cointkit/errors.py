"""Typed errors shared across the toolkit.

The three error families map onto CLI exit codes: UsageError -> 1,
DataError -> 2, NumericalError -> 3. Every other CointkitError also exits
3; the one today is MissingGuardWarning, a broken experiment contract.

Every public setting is coerced and checked by one of four rules, written
once here: ``int_setting``, ``real_setting`` and ``flag_setting`` for
numbers and flags, ``instance_setting`` for settings that take an object.
Each returns the plain Python value, so equal settings give equal configs
and digests, or raises ``UsageError`` naming the setting.
"""

import math

import numpy as np


class CointkitError(Exception):
    """Base class for every error raised by this package.

    An error raised from a Monte Carlo replication also carries
    ``replication`` (its index) and ``seed`` (its 64-bit seed), so that
    replication can be generated and run again alone.
    """

    def __reduce__(self):
        # Pickled (say, back from a worker process) as its message and
        # attributes: a subclass __init__ takes other arguments than ``args``.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls: type, args: tuple, attributes: dict) -> CointkitError:
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(attributes)
    return exc


class UsageError(CointkitError):
    """Invalid configuration or an unsupported request."""


def int_setting(
    name: str, value, lo: int | None = None, hi: int | None = None, *, expected: str | None = None
) -> int:
    """The integer rule: ``value`` as a Python int, within ``lo``..``hi`` if given.

    Takes a Python or numpy integer, or a finite float with an integral
    value (300.0 is 300); never a bool. ``expected`` replaces every message
    with "{name} must be {expected}".
    """
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if isinstance(value, (float, np.floating)):
        integral = math.isfinite(value) and value.is_integer()
    if not integral:
        message = f"an integer, got {value!r}" if expected is None else expected
        raise UsageError(f"{name} must be {message}")
    return _bounded(name, int(value), lo, hi, expected)


def real_setting(name: str, value, lo: float | None = None, hi: float | None = None) -> float:
    """The real rule: ``value``, a finite Python or numpy int or float, as a Python float
    within ``lo``..``hi`` if given; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise UsageError(f"{name} must be finite, got {number}")
    return _bounded(name, number, lo, hi)


def flag_setting(name: str, value) -> bool:
    """The flag rule: a Python or numpy bool, as a Python bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise UsageError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def instance_setting(name: str, value, cls: type):
    """The instance rule: ``value`` if it is a ``cls``."""
    if not isinstance(value, cls):
        raise UsageError(f"{name} must be of type {cls.__name__}, got {value!r}")
    return value


def _bounded(name: str, value, lo, hi, expected: str | None = None):
    """``value`` if it lies in the closed range ``lo``..``hi`` (either may be None)."""
    if (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    if expected:
        raise UsageError(f"{name} must be {expected}")
    if hi is None:
        raise UsageError(f"{name} must be >= {lo}, got {value}")
    raise UsageError(f"{name} must be in {lo}..{hi}, got {value}")


class DataError(CointkitError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(CointkitError):
    """Estimation cannot proceed for numerical reasons."""


class NonPositiveValue(DataError):
    """A log transform hit a value <= 0."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"value {value!r} at position {index} is not strictly positive")


class SeriesTooShort(DataError):
    """Too few observations for the requested operation."""


class NoOverlap(DataError):
    def __init__(self, message: str = "series have no overlapping date range"):
        super().__init__(message)


class FrequencyMismatch(DataError):
    def __init__(self, a: int, b: int):
        self.frequencies = (a, b)
        super().__init__(f"cannot combine series with frequencies {a} and {b}")


class DimensionMismatch(DataError):
    """Arrays or names whose lengths do not match."""


class ParseError(DataError):
    """A malformed row in an input file; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class GapInDates(DataError):
    """Input rows skipped a period; carries the expected and found labels."""

    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(f"expected period {expected} but found {found}")


class EmptyFile(DataError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"no data rows in {path}")


class RankDeficient(NumericalError):
    """The design matrix is (numerically) rank deficient; names a culprit column."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} is linearly dependent on earlier columns")


class DegenerateInput(NumericalError):
    """Zero residual variance: the input carries no innovation to test."""

    def __init__(self, message: str = "input has zero innovation variance"):
        super().__init__(message)


class UnsupportedCombination(UsageError):
    """A request outside the tabulated critical-value surfaces."""


class ConfigError(UsageError):
    """A malformed command line or config file."""


class MissingGuardWarning(CointkitError):
    """An experiment contract required a guard warning that did not fire."""

    def __init__(self, replication: int):
        self.replication = replication
        super().__init__()

    def __str__(self) -> str:
        # From the attribute, which a Monte Carlo runner sets to the replication's index.
        return (
            f"replication {self.replication}: "
            "differenced-input guard did not fire on differenced data"
        )
