"""Frozen result records: read-only arrays and one conversion to JSON values."""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class Record:
    """Base of the result dataclasses; every ndarray field is made read-only."""

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def to_dict(self) -> dict:
        """The fields, in declaration order, as strict-JSON values.

        Arrays and tuples become lists, a nested dataclass (a grid's spec) a
        dict, a complex number [re, im], a numpy scalar the Python one, and a
        non-finite float (inf where a quantity is unbounded) null.
        """
        return _plain(self)


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [_plain(value.real), _plain(value.imag)]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value
