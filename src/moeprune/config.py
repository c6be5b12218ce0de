"""Run-config sections: "model", "train", "calibration" and "kd".

Each section is a frozen dataclass derived from `Section`, and its field
defaults are the only copy of its defaults. Building one checks every field
against its default's type and its LIMITS range, whether the value comes
from a JSON config file, a flag or a library caller.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import fields, replace
from typing import ClassVar

from .errors import ConfigError, FormatError

__all__ = ["LIMITS", "Section"]

# Value ranges, by key in any section: key -> (test, what the message asks for).
LIMITS = {
    "batch_size": (lambda v: v >= 1, "at least 1"),
    "samples": (lambda v: v >= 1, "at least 1"),
    "nsamples": (lambda v: v >= 1, "at least 1"),
    "steps": (lambda v: v >= 0, "at least 0"),
    "epochs": (lambda v: v >= 0, "at least 0"),
    "seed": (lambda v: v >= 0, "at least 0"),
    "learning_rate": (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "lambda_mode": (lambda v: math.isfinite(v) and v > 0, '"auto" or finite and > 0'),
}


def _check(section: str, name: str, value, default) -> None:
    """A field's value is its default, or of its default's type (an integer
    stands for a float, and a number for kd.lambda_mode's "auto") and within
    its LIMITS range."""
    if type(value) is type(default) and value == default:
        return
    if isinstance(default, bool):
        ok, want = type(value) is bool, "true or false"
    else:
        integral = isinstance(default, int)
        ok = (isinstance(value, numbers.Integral if integral else numbers.Real)
              and not isinstance(value, bool))
        want = "an integer" if integral else "a number"
    key, shown = f"{section}.{name}", json.dumps(value, default=repr)
    if not ok:
        raise ConfigError(f"config key {key} must be {want}, got {shown}")
    limit = LIMITS.get(name)
    if limit and not limit[0](value):
        raise ConfigError(f"config key {key} must be {limit[1]}, got {shown}")


class Section:
    """Base of the config-section dataclasses; SECTION is the section's key in
    a config file. Values are kept as given, so the echoed config shows them
    as written."""

    SECTION: ClassVar[str]

    def __post_init__(self):
        for f in fields(self):
            _check(self.SECTION, f.name, getattr(self, f.name), f.default)

    @classmethod
    def from_dict(cls, given, **flags):
        """The section from a config file's object for it, over the defaults,
        then each flag that is not None over that; both layers are checked."""
        if not isinstance(given, dict):
            raise FormatError(f"config section {cls.SECTION!r} must be a JSON object, "
                              f"got {json.dumps(given)}")
        names = [f.name for f in fields(cls)]
        for key in given:
            if key not in names:
                raise ConfigError(f"config key {cls.SECTION}.{key} is not known; "
                                  f"expected one of {', '.join(names)}")
        return replace(cls(**given), **{k: v for k, v in flags.items() if v is not None})
