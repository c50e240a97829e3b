"""Minimal NIfTI-1 reader/writer for the benchmark's own inputs and checks.

Independent of voxseg, so that generating inputs and checking outputs
never runs the code under test.  Writes little-endian single-file
NIfTI-1 with the payload at offset 352, gzip level 1 and no mtime (the
same inputs give the same bytes); reads any gzip level.
"""
from __future__ import annotations

import gzip
import struct

import numpy as np

HEADER_SIZE = 348
DATA_OFFSET = 352
GZIP_LEVEL = 1

_CODE_BY_DTYPE = {np.dtype("<u1"): 2, np.dtype("<i2"): 4, np.dtype("<u2"): 512, np.dtype("<f4"): 16}
_DTYPE_BY_CODE = {c: d for d, c in _CODE_BY_DTYPE.items()}


def encode(data: np.ndarray, spacing) -> bytes:
    """Uncompressed NIfTI-1 bytes of a 3D array indexed [x, y, z]."""
    dtype = data.dtype.newbyteorder("<")
    if dtype not in _CODE_BY_DTYPE:
        raise ValueError(f"unsupported dtype {data.dtype}")
    hdr = bytearray(DATA_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, _CODE_BY_DTYPE[dtype], dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, float(DATA_OFFSET), 1.0, 0.0)
    hdr[123] = 2  # millimetres
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr) + data.astype(dtype, copy=False).tobytes(order="F")


def save(data: np.ndarray, spacing, path) -> int:
    """Write a gzipped NIfTI file; returns the uncompressed size in bytes."""
    raw = encode(data, spacing)
    with open(path, "wb") as fh:
        fh.write(gzip.compress(raw, compresslevel=GZIP_LEVEL, mtime=0))
    return len(raw)


def load(path) -> np.ndarray:
    """Decode a NIfTI-1 file (gzipped or not) to an array indexed [x, y, z]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < DATA_OFFSET or struct.unpack_from("<i", raw, 0)[0] != HEADER_SIZE:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    (code,) = struct.unpack_from("<h", raw, 70)
    (offset,) = struct.unpack_from("<f", raw, 108)
    if dim[0] != 3 or code not in _DTYPE_BY_CODE:
        raise ValueError(f"{path}: unsupported dim {dim[0]} or datatype {code}")
    shape = tuple(dim[1:4])
    dtype = _DTYPE_BY_CODE[code]
    count = shape[0] * shape[1] * shape[2]
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=int(offset))
    return flat.reshape(shape, order="F").copy()
