"""Settings dataclasses: each field declares its allowed values.

`setting(default, help, allowed)` declares a field. `allowed` is a tuple
of choices or an interval such as "[0, 1)" or "(0, inf)", parsed once,
here; a bound is a number or the name of an earlier field ("[1, k1]").
A field typed by a Settings class is a group. `Settings.leaves()`, the one
walk over the fields, names each leaf by its flat key: the class's
`key_prefix` (say "tau_") plus the field name, as config files, manifests
and CLI flags spell it, also for a group on its own. `validate()` checks
the leaves in that order, so the first bad key in manifest order is named,
each by its type (`require_type`) and then by `need <key> in <allowed>, got
<value!r>`. A run's settings are checked once, at its boundary
(`trainer.check_run`); the kernels trust them.
"""

import functools
import numbers
import operator
from dataclasses import field, fields

from .errors import SelfReidError

_LOWER = {"[": operator.le, "(": operator.lt}
_UPPER = {"]": operator.le, ")": operator.lt}
# A leaf's declared type -> the values it takes (a bool is neither an int nor a float).
_KINDS = {int: (numbers.Integral, "an int"), float: (numbers.Real, "a float"), str: (str, "a str")}


def require_type(key: str, value, kind: type) -> None:
    """Reject a `value` of `key` that is not a `kind` (int, float or str): an int
    takes a Python or numpy integer, a float any real number, ints included."""
    accepted, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise SelfReidError(f"need {key} to be {name}, got {value!r}")


def _bound(text: str):
    try:
        return float(text)
    except ValueError:
        return text  # an earlier field's name


def _interval(text: str):
    """allows(settings, value) for the interval `text`."""
    low, high = (_bound(part.strip()) for part in text[1:-1].split(","))
    above, below = _LOWER[text[0]], _UPPER[text[-1]]

    def allows(settings, value) -> bool:
        return (above(getattr(settings, low) if isinstance(low, str) else low, value)
                and below(value, getattr(settings, high) if isinstance(high, str) else high))
    return allows


def setting(default, help: str, allowed):
    """A settings field: its default, its --help text and its allowed values."""
    if isinstance(allowed, tuple):
        text, allows = repr(allowed), lambda _, value: value in allowed
    else:
        text, allows = allowed, _interval(allowed)
    return field(default=default, metadata={"help": help, "allowed": text, "allows": allows})


class Settings:
    """Base of the settings dataclasses; see the module docstring."""

    key_prefix = ""

    @classmethod
    @functools.cache
    def leaves(cls) -> tuple:
        """(flat key, attribute path, field) per leaf, in order; a group's leaves in its place."""
        return tuple((cls.key_prefix + key, (f.name, *path), leaf) for f in fields(cls)
                     for key, path, leaf in (f.type.leaves() if issubclass(f.type, Settings)
                                             else [(f.name, (), f)]))

    def values(self) -> dict:
        """The flat key -> value dict, in declaration order."""
        return {key: functools.reduce(getattr, path, self) for key, path, _ in self.leaves()}

    def validate(self) -> None:
        for key, (*groups, name), f in self.leaves():
            holder = functools.reduce(getattr, groups, self)
            value = getattr(holder, name)
            require_type(key, value, f.type)
            if not f.metadata["allows"](holder, value):
                raise SelfReidError(f"need {key} in {f.metadata['allowed']}, got {value!r}")
