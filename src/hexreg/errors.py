"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the CLI:
1 = usage/config error, 2 = data/schema error, 3 = numerical failure.
``check`` and ``check_fields`` at the end are the one place a config value
is checked and its refusal worded: ``<name> must <rule>, got <value!r>``.
"""

import numbers
import sys


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


# -- data / schema / io --------------------------------------------------

class IoError(DataError):
    pass


class SchemaError(DataError):
    pass


class VersionMismatch(DataError):
    pass


class InsufficientSamples(DataError):
    pass


class EmptyTrainSet(DataError):
    pass


# -- numerical -----------------------------------------------------------

class NonFinite(NumericalError):
    pass


class ZeroMatrix(NumericalError):
    pass


# -- config field checks --------------------------------------------------
#
# A rule is a tuple of the allowed values, or a type with an optional range:
# "int" (a bool is not one), "real" (finite), "bool" or "ints" (a list of
# ints, each in the range), then ">= a", "> a" or an interval such as
# "[0, 1)". A refusal's text is its rule's.

_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "real": ("a finite number", lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                                           and abs(v) <= sys.float_info.max)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "ints": ("a list of integers", lambda v: isinstance(v, list)),
}


def refusal(name: str, rule: str, value) -> BadConfig:
    return BadConfig(f"{name} must {rule}, got {value!r}")


def check(name: str, value, rule):
    """value, as a float if the rule's type is real, when it keeps rule;
    otherwise BadConfig names ``name``, or ``name[i]`` for an ints item."""
    if isinstance(rule, tuple):
        if value not in rule:
            raise refusal(name, f"be one of {rule}", value)
        return value
    kind, _, span = rule.partition(" ")
    text, is_kind = _TYPES[kind]
    if not is_kind(value):
        raise refusal(name, f"be {text}", value)
    if kind == "ints":
        for i, item in enumerate(value):
            check(f"{name}[{i}]", item, f"int {span}")
        return value
    if span[:1] in ("[", "("):
        low, high = (float(b) for b in span[1:-1].split(","))
        if not ((low <= value if span[0] == "[" else low < value)
                and (value <= high if span[-1] == "]" else value < high)):
            raise refusal(name, f"lie in {span}", value)
    elif span:
        op, low = span.split()
        if not (value >= float(low) if op == ">=" else value > float(low)):
            raise refusal(name, f"be {span}", value)
    return float(value) if kind == "real" else value


def check_fields(section: str, obj, **rules):
    """Check each named field of the config section obj against its rule,
    naming it ``<section>.<field>``, and store an accepted real as a float:
    a config hashes alike however its numbers are written."""
    for name, rule in rules.items():
        setattr(obj, name, check(f"{section}.{name}", getattr(obj, name), rule))
