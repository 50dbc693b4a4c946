"""Plain JSON data from the package's result records.

`plain` is the one encoder behind every record's `to_json`: certificates,
search results, the aI + DP observation report and normalization records.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np


def plain(obj):
    """obj as JSON data: a dataclass as a dict of its fields in field order,
    an enum as its value, a complex number as [real, imag], and a tuple or
    numpy array as a list; anything else as it is."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (tuple, np.ndarray)):
        return [plain(v) for v in obj]
    return obj
