"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the CLI:
1 = usage/config error, 2 = data/schema error, 3 = numerical failure.
The config sections share the two field checks at the end.
"""

import math
import numbers


class HexRegError(Exception):
    exit_code = 3


class UsageError(HexRegError):
    exit_code = 1


class DataError(HexRegError):
    exit_code = 2


class NumericalError(HexRegError):
    exit_code = 3


# -- usage / config ------------------------------------------------------

class BadConfig(UsageError):
    pass


class BadParams(UsageError):
    pass


class BadDims(UsageError):
    pass


# -- data / schema / io --------------------------------------------------

class IoError(DataError):
    pass


class SchemaError(DataError):
    pass


class VersionMismatch(DataError):
    pass


class MissingLabels(DataError):
    pass


class InsufficientSamples(DataError):
    pass


class EmptyTrainSet(DataError):
    pass


# -- numerical -----------------------------------------------------------

class NotNormalized(NumericalError):
    pass


class NonFinite(NumericalError):
    pass


class EmptyBatch(NumericalError):
    pass


class ZeroMatrix(NumericalError):
    pass


# -- config field checks --------------------------------------------------

def _check_int(name: str, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadConfig(f"{name} must be an integer, got {value!r}")


def _is_finite_real(value) -> bool:
    """A finite real number; a bool is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_finite(name: str, value):
    if not _is_finite_real(value):
        raise BadConfig(f"{name} must be a finite number, got {value!r}")
