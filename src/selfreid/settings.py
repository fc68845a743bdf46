"""Settings dataclasses: each field declares its allowed values.

`setting(default, help, allowed)` declares a field. `allowed` is a tuple
of choices or an interval such as "[0, 1)" or "(0, inf)", parsed once,
here; a bound is a number or the name of an earlier field ("[1, k1]").
The one `Settings.validate()` checks the fields in declaration order, a
group (a Settings field) by its own rules in place, so the first bad key
in manifest order is named: `need <key> in <allowed>, got <value!r>`. A
key is the class's `key_prefix` (say "tau_") plus the field name, as
config files and CLI flags spell it, also when a group is checked alone.
"""

import functools
import operator
from dataclasses import field, fields

from .errors import SelfReidError

_LOWER = {"[": operator.le, "(": operator.lt}
_UPPER = {"]": operator.le, ")": operator.lt}
_fields = functools.cache(fields)  # a settings class's fields, looked up once


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

    def validate(self) -> None:
        for f in _fields(type(self)):
            value = getattr(self, f.name)
            if isinstance(value, Settings):
                value.validate()
            elif not f.metadata["allows"](self, value):
                raise SelfReidError(f"need {self.key_prefix}{f.name} in "
                                    f"{f.metadata['allowed']}, got {value!r}")
