"""Bit-exact reader/writer for a little-endian NIfTI-1 single-file subset.

Supported: 3D volumes, datatypes uint8/int16/uint16/float32, data at
offset 352, optional gzip (found by content on load, by a ``.gz`` suffix
on save; a truncated or corrupt stream raises ``NiftiError``).
``scl_slope``/``scl_inter`` are applied on load (slope 0 means "no
scaling") and written back as (1, 0).
Orientation fields are carried as opaque bytes, never interpreted.
``peek_nifti`` reads the header alone, as a ``Volume`` over zeros.
Compressed files are written at gzip level 1 by default: these are
scratch and pipeline files, and level 9 takes ~10x longer for ~5% smaller
files.  The orchestrator stages TTA flips at level 0 (stored gzip), since
the segmenter reads each flip once: a 512x512x100 int16 CT-like image
saves in 0.08 s at level 0 against 1.2 s at level 1 (2-core x86 machine),
for a file of about the raw size (52 MB against 29 MB).

Arrays keep the payload's x-fastest (Fortran) layout in memory, so neither
load nor save transposes a volume.

File naming: ``<stem>.nii.gz`` or ``<stem>.nii``; when a directory holds
both for one stem, ``.nii.gz`` wins.
"""
from __future__ import annotations

import gzip
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import NiftiError
from .volume import Spacing, Volume

HEADER_SIZE = 348
DATA_OFFSET = 352
MAGIC = b"n+1\x00"

# NIfTI datatype code <-> numpy dtype (little-endian)
_DTYPE_BY_CODE = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    512: np.dtype("<u2"),
    16: np.dtype("<f4"),
}
_CODE_BY_KIND = {np.dtype(k).str: c for c, d in _DTYPE_BY_CODE.items() for k in [d]}

# Opaque header tail: qform/sform/intent fields, byte range [252, 344).
_EXTRA_SLICE = slice(252, 344)

_GZIP_MAGIC = b"\x1f\x8b"
GZIP_LEVEL = 1
# what a truncated or corrupt gzip stream raises while it is read
_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)

_SUFFIXES = (".nii.gz", ".nii")  # in order of preference


def nifti_stem(name: str) -> str | None:
    """``name`` without its NIfTI suffix, or None when it has none."""
    for suffix in _SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return None


def nifti_files(directory) -> dict[str, Path]:
    """``{stem: path}`` for the NIfTI files in ``directory``, in stem order."""
    directory = Path(directory)
    found: dict[str, Path] = {}
    for name in os.listdir(directory):
        stem = nifti_stem(name)
        if stem is not None and (stem not in found or name.endswith(_SUFFIXES[0])):
            found[stem] = directory / name
    return dict(sorted(found.items()))


def find_nifti(directory, stem: str) -> Path | None:
    """The NIfTI file named ``stem`` in ``directory``, or None."""
    for suffix in _SUFFIXES:
        path = Path(directory) / f"{stem}{suffix}"
        if path.exists():
            return path
    return None


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != _GZIP_MAGIC:
        return raw
    try:
        return gzip.decompress(raw)
    except _GZIP_ERRORS as exc:
        raise NiftiError(f"{path}: truncated or corrupt gzip stream: {exc}") from exc


def _parse_header(raw: bytes, path) -> dict:
    if len(raw) < HEADER_SIZE:
        raise NiftiError(f"{path}: truncated header ({len(raw)} bytes, need {HEADER_SIZE})")
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        (swapped,) = struct.unpack_from(">i", raw, 0)
        if swapped == HEADER_SIZE:
            raise NiftiError(f"{path}: big-endian NIfTI files are not supported")
        raise NiftiError(f"{path}: not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
    magic = raw[344:348]
    if magic != MAGIC:
        raise NiftiError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    dim = struct.unpack_from("<8h", raw, 40)
    if dim[0] != 3:
        raise NiftiError(f"{path}: only 3D volumes supported, got dim[0]={dim[0]}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise NiftiError(f"{path}: non-positive dimension {(nx, ny, nz)}")
    (datatype,) = struct.unpack_from("<h", raw, 70)
    if datatype not in _DTYPE_BY_CODE:
        raise NiftiError(
            f"{path}: unsupported datatype code {datatype} "
            f"(supported: {sorted(_DTYPE_BY_CODE)})"
        )
    pixdim = struct.unpack_from("<8f", raw, 76)
    if any(not (np.isfinite(p) and p > 0) for p in pixdim[1:4]):
        raise NiftiError(f"{path}: non-positive pixdim {pixdim[1:4]}")
    (vox_offset,) = struct.unpack_from("<f", raw, 108)
    if vox_offset != DATA_OFFSET:
        raise NiftiError(f"{path}: vox_offset must be {DATA_OFFSET}, got {vox_offset}")
    scl_slope, scl_inter = struct.unpack_from("<2f", raw, 112)
    return {
        "dims": (nx, ny, nz),
        "dtype": _DTYPE_BY_CODE[datatype],
        "spacing": Spacing(float(pixdim[1]), float(pixdim[2]), float(pixdim[3])),
        "scl": (float(scl_slope), float(scl_inter)),
        "extra": raw[_EXTRA_SLICE],
    }


def peek_nifti(path) -> Volume:
    """The header of ``path`` as a Volume over read-only zero-stride zeros."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == _GZIP_MAGIC:
            try:
                with gzip.open(fh) as gz:
                    raw = gz.read(HEADER_SIZE)
            except _GZIP_ERRORS as exc:
                raise NiftiError(f"{path}: truncated or corrupt gzip stream: {exc}") from exc
        else:
            raw = fh.read(HEADER_SIZE)
    hdr = _parse_header(raw, path)
    return Volume(np.broadcast_to(np.uint8(0), hdr["dims"]), hdr["spacing"], extra=hdr["extra"])


def load_nifti(path) -> Volume:
    """Load a NIfTI-1 file into a Volume, applying any intensity rescale.

    The data array is writable and x-fastest (Fortran order), like the
    payload, so it is copied out of the file buffer without a transpose.
    """
    raw = _read_bytes(path)
    hdr = _parse_header(raw, path)
    nx, ny, nz = hdr["dims"]
    dtype = hdr["dtype"]
    nbytes = nx * ny * nz * dtype.itemsize
    payload = memoryview(raw)[DATA_OFFSET : DATA_OFFSET + nbytes]
    if len(payload) < nbytes:
        raise NiftiError(
            f"{path}: truncated payload ({len(payload)} bytes, need {nbytes})"
        )
    flat = np.frombuffer(payload, dtype=dtype)
    data = flat.reshape((nx, ny, nz), order="F")

    slope, inter = hdr["scl"]
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        data = (data.astype(np.float32) * np.float32(slope)) + np.float32(inter)
    else:
        data = data.copy(order="K")

    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise NiftiError(f"{path}: volume contains NaN or Inf values")
    return Volume(data, hdr["spacing"], extra=hdr["extra"])


def _build_header(vol: Volume) -> bytes:
    key = vol.data.dtype.newbyteorder("<").str
    if key not in _CODE_BY_KIND:
        raise NiftiError(f"cannot save dtype {vol.data.dtype}; supported: uint8/int16/uint16/float32")
    code = _CODE_BY_KIND[key]
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    nx, ny, nz = vol.dims
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, vol.data.dtype.itemsize * 8)
    s = vol.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, s.dx, s.dy, s.dz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(DATA_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    hdr[123] = 2  # spatial units: millimeters
    if vol.extra is not None:
        hdr[_EXTRA_SLICE] = vol.extra
    hdr[344:348] = MAGIC
    return bytes(hdr)


def save_nifti(vol: Volume, path, level: int = GZIP_LEVEL) -> None:
    """Write ``vol`` to ``path``, gzipped at ``level`` when ``path`` ends
    in ``.gz``.

    The default, ``GZIP_LEVEL`` (1), suits every file voxseg keeps.  Level 0
    writes stored gzip: about the raw size, a small fraction of level 1's
    time, and still read by any gzip reader.  Only the staged TTA flips use
    it, since the segmenter reads each of them once.

    Output bytes are deterministic: the gzip stream carries no mtime, and
    C- and Fortran-ordered copies of one array write the same bytes.  An
    x-fastest array is written straight from its buffer.
    """
    head = _build_header(vol) + b"\x00\x00\x00\x00"
    # little-endian like the header; no copy for a native array
    data = vol.data.astype(vol.data.dtype.newbyteorder("<"), copy=False)
    payload = data.ravel(order="F")  # a view when already x-fastest
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            if str(path).endswith(".gz"):
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=fh, compresslevel=level, mtime=0
                ) as gz:
                    gz.write(head)
                    gz.write(payload)
            else:
                fh.write(head)
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
