"""In-memory 3D volume types and the segmentation class taxonomy.

Arrays are indexed ``[x, y, z]``; the flat on-disk order is x-fastest
(Fortran order), matching the NIfTI payload layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import VoxsegError

# Canonical class ids: 0 background, 1..13 organs, 14 tumor.
CLASS_NAMES = {
    0: "Background",
    1: "Liver",
    2: "Right Kidney",
    3: "Spleen",
    4: "Pancreas",
    5: "Aorta",
    6: "Inferior vena cava",
    7: "Right adrenal gland",
    8: "Left adrenal gland",
    9: "Gallbladder",
    10: "Esophagus",
    11: "Stomach",
    12: "Duodenum",
    13: "Left kidney",
    14: "Tumor",
}
ORGAN_CLASSES = tuple(range(1, 14))
TUMOR_CLASS = 14
FOREGROUND_CLASSES = ORGAN_CLASSES + (TUMOR_CLASS,)
NUM_CLASSES = 15

SUPPORTED_DTYPES = (np.uint8, np.int16, np.uint16, np.float32)

# how far a probability may leave [0, 1], and a voxel's sum over classes
# may leave 1, before a probability map breaks the wire contract
PROB_TOL = 1e-4


@dataclass(frozen=True)
class Spacing:
    """Voxel size in millimeters along the three grid axes."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name, v in (("dx", self.dx), ("dy", self.dy), ("dz", self.dz)):
            if not (np.isfinite(v) and v > 0):
                raise VoxsegError(f"spacing {name}={v!r} must be a positive finite number")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)

    def close_to(self, other: "Spacing", tol: float = 1e-6) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(self.as_tuple(), other.as_tuple()))


@dataclass(frozen=True)
class Volume:
    """A dense 3D scalar grid with physical voxel spacing.

    ``data`` has shape (nx, ny, nz). ``rescale`` records the
    (slope, intercept) applied at load time, if any. ``extra`` carries
    the orientation fields of a loaded NIfTI header as opaque bytes;
    they are written back on save but never interpreted.
    """

    data: np.ndarray
    spacing: Spacing
    rescale: tuple[float, float] | None = None
    extra: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.data.ndim != 3:
            raise VoxsegError(f"volume data must be 3D, got shape {self.data.shape}")
        if any(n < 1 for n in self.data.shape):
            raise VoxsegError(f"volume dims must be positive, got {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def elem(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Volume":
        return replace(self, data=self.data.astype(dtype))

    def with_data(self, data: np.ndarray) -> "Volume":
        return replace(self, data=data)

    def equals(self, other: "Volume", spacing_tol: float = 1e-6) -> bool:
        return (
            self.dims == other.dims
            and self.spacing.close_to(other.spacing, spacing_tol)
            and np.array_equal(self.data, other.data)
        )


def as_binary(mask, name: str = "mask") -> np.ndarray:
    """Return ``mask`` as a bool array; only bool or 0/1 values are accepted."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        return mask
    values = np.unique(mask)
    if not set(values.tolist()) <= {0, 1}:
        raise VoxsegError(f"{name} must be binary, found values {values[:8].tolist()}")
    return mask.astype(bool)


def check_labelmap(vol: Volume) -> Volume:
    """Validate that ``vol`` is a label map: uint8 values in 0..14."""
    if vol.data.dtype != np.uint8:
        raise VoxsegError(f"label map must be uint8, got {vol.data.dtype}")
    vmax = int(vol.data.max(initial=0))
    if vmax > TUMOR_CLASS:
        raise VoxsegError(f"label map contains value {vmax} > {TUMOR_CLASS}")
    return vol


def labelmap_like(values: np.ndarray, like: Volume) -> Volume:
    """Wrap an integer array as a label map sharing ``like``'s geometry."""
    return check_labelmap(Volume(np.asarray(values, dtype=np.uint8), like.spacing))


def voxel_count(vol: Volume, class_id: int) -> int:
    """Number of voxels labeled ``class_id`` (0..14)."""
    check_labelmap(vol)
    if not 0 <= class_id <= TUMOR_CLASS:
        raise VoxsegError(f"class_id {class_id} outside 0..{TUMOR_CLASS}")
    return int(np.count_nonzero(vol.data == class_id))


@dataclass(frozen=True)
class ProbMap:
    """Per-class probability volumes sharing one grid.

    ``probs`` has shape (C, nx, ny, nz); ``classes`` gives the class id of
    each channel, strictly ascending and starting with background 0.
    """

    probs: np.ndarray
    classes: tuple[int, ...]
    spacing: Spacing

    def __post_init__(self):
        if self.probs.ndim != 4:
            raise VoxsegError(f"prob map must be 4D (C,nx,ny,nz), got {self.probs.shape}")
        if len(self.classes) != self.probs.shape[0]:
            raise VoxsegError("class list length does not match channel count")
        if list(self.classes) != sorted(set(self.classes)) or self.classes[0] != 0:
            raise VoxsegError(f"classes must be ascending and include background 0: {self.classes}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.probs.shape[1:]

    def validate(self, tol: float = PROB_TOL) -> "ProbMap":
        if self.probs.min() < -tol or self.probs.max() > 1 + tol:
            raise VoxsegError("probabilities outside [0, 1]")
        sums = self.probs.sum(axis=0)
        if np.abs(sums - 1.0).max() > tol:
            raise VoxsegError(f"per-voxel probabilities sum to {sums.min()}..{sums.max()}, not 1")
        return self
