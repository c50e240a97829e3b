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

    ``data`` has shape (nx, ny, nz). ``extra`` carries the orientation
    fields of a loaded NIfTI header as opaque bytes; they are written
    back on save but never interpreted.
    """

    data: np.ndarray
    spacing: Spacing
    extra: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.data.ndim != 3:
            raise VoxsegError(f"volume data must be 3D, got shape {self.data.shape}")
        if any(n < 1 for n in self.data.shape):
            raise VoxsegError(f"volume dims must be positive, got {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume":
        return replace(self, data=data)


def check_same_grid(named: list[tuple[str, Volume]]) -> None:
    """Raise unless every ``(name, volume)`` has the first one's dims and,
    within ``Spacing.close_to``, its spacing; orientation is not compared."""
    (first, ref), *rest = named
    for name, vol in rest:
        if vol.dims != ref.dims:
            raise VoxsegError(f"dim mismatch: {first} {ref.dims} vs {name} {vol.dims}")
        if not vol.spacing.close_to(ref.spacing):
            a, b = ref.spacing.as_tuple(), vol.spacing.as_tuple()
            raise VoxsegError(f"spacing mismatch: {first} {a} mm vs {name} {b} mm")


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
    """Wrap an integer array as a label map on ``like``'s header."""
    return check_labelmap(like.with_data(np.asarray(values, dtype=np.uint8)))


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
