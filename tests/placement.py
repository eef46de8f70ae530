"""Copies of arrays placed at a chosen byte offset from a cache line."""

import numpy as np

from dbarheat.grid import ALIGN

#: the offsets mod ALIGN that numpy's 16-byte alignment can give a vector.
OFFSETS = (0, 16, 32, 48)


def placed(values, offset):
    """A copy of values whose data start offset bytes past a cache line."""
    values = np.asarray(values)
    raw = np.empty(values.nbytes + 2 * ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN + offset
    out = raw[start:start + values.nbytes].view(values.dtype)
    out = out.reshape(values.shape)
    out[...] = values
    return out


def offset_of(array):
    return array.ctypes.data % ALIGN
