"""Flat binary checkpoint format for named parameter tensors.

Layout (all little-endian): magic ``BWGN``, version u32, tensor count u32,
then per tensor: name length u32 + UTF-8 name, ndim u32, each dim u32,
row-major float64 data.  Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"BWGN"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_tensors(path, tensors: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, value in tensors.items():
            value = np.asarray(value, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", value.ndim))
            for d in value.shape:
                fh.write(struct.pack("<I", d))
            fh.write(value.tobytes())


def load_tensors(path) -> dict:
    """Read a checkpoint; a file that does not decode raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    try:
        return _decode(data)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except struct.error:
        raise CheckpointError(f"{path}: truncated checkpoint") from None
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: tensor name is not UTF-8") from None


def _decode(data) -> dict:
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    offset = 12
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + name_len > len(data):
            raise CheckpointError("truncated checkpoint")
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<I", data, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}I", data, offset) if ndim else ()
        offset += 4 * ndim
        size = math.prod(shape)
        if offset + 8 * size > len(data):
            raise CheckpointError("truncated checkpoint")
        value = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
        offset += 8 * size
        tensors[name] = value.reshape(shape).copy()
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes")
    return tensors
