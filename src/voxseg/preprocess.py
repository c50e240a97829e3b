"""CT preprocessing: intensity clipping + z-normalization and
spacing-driven resampling.

Resampling to a target ``Spacing`` uses voxel-center alignment: output
center ``i`` samples the input at ``(i + 0.5) * target/old - 0.5``,
clamped to the grid. Images are interpolated linearly per axis
(trilinear in-plane, linear through-plane); label maps take the nearest
input voxel center.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VoxsegError
from .volume import Spacing, Volume, check_labelmap

# Dataset-level HU statistics used as clipping/normalization defaults.
DEFAULT_CLIP_LO = -970.0
DEFAULT_CLIP_HI = 279.0
DEFAULT_MEAN = 80.3
DEFAULT_STD = 141.4


@dataclass(frozen=True)
class NormalizationParams:
    clip_lo: float = DEFAULT_CLIP_LO
    clip_hi: float = DEFAULT_CLIP_HI
    mean: float = DEFAULT_MEAN
    std: float = DEFAULT_STD

    def __post_init__(self):
        if not self.clip_lo < self.clip_hi:
            raise VoxsegError(f"clip_lo {self.clip_lo} must be < clip_hi {self.clip_hi}")
        if not self.std > 0:
            raise VoxsegError(f"std must be positive, got {self.std}")


def clip_normalize(vol: Volume, params: NormalizationParams | None = None) -> Volume:
    """Clamp intensities to [clip_lo, clip_hi], then z-normalize."""
    params = params or NormalizationParams()
    data = vol.data.astype(np.float32, copy=False)
    out = (np.clip(data, params.clip_lo, params.clip_hi) - params.mean) / params.std
    return vol.with_data(out.astype(np.float32))


def _output_dims(dims, old: Spacing, target: Spacing) -> tuple[int, int, int]:
    out = []
    for n, o, t in zip(dims, old.as_tuple(), target.as_tuple()):
        # round half up, clamp to >= 1
        out.append(max(1, int(np.floor(n * o / t + 0.5))))
    return tuple(out)


def _sample_coords(n_out: int, n_in: int, old: float, target: float) -> np.ndarray:
    coords = (np.arange(n_out, dtype=np.float64) + 0.5) * (target / old) - 0.5
    return np.clip(coords, 0.0, n_in - 1)


def _interp_axis(data: np.ndarray, axis: int, coords: np.ndarray) -> np.ndarray:
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, data.shape[axis] - 1)
    w = coords - lo
    shape = [1, 1, 1]
    shape[axis] = len(coords)
    w = w.reshape(shape)
    a = np.take(data, lo, axis=axis)
    b = np.take(data, hi, axis=axis)
    return a * (1.0 - w) + b * w


def resample_image(vol: Volume, target: Spacing) -> Volume:
    """Separable linear resampling of an intensity volume to ``target``."""
    if any(n < 2 for n in vol.dims):
        raise VoxsegError(f"resampling needs >= 2 voxels per axis, got dims {vol.dims}")
    old = vol.spacing
    out_dims = _output_dims(vol.dims, old, target)
    data = vol.data.astype(np.float64)
    for axis in range(3):
        coords = _sample_coords(out_dims[axis], vol.dims[axis], old.as_tuple()[axis], target.as_tuple()[axis])
        data = _interp_axis(data, axis, coords)
    return Volume(data.astype(np.float32), target)


def resample_labels(vol: Volume, target: Spacing) -> Volume:
    """Nearest-neighbor resampling of a label map to ``target``."""
    check_labelmap(vol)
    old = vol.spacing
    out_dims = _output_dims(vol.dims, old, target)
    idx = []
    for axis in range(3):
        coords = _sample_coords(out_dims[axis], vol.dims[axis], old.as_tuple()[axis], target.as_tuple()[axis])
        # nearest voxel center, ties round up
        idx.append(np.clip(np.floor(coords + 0.5).astype(np.int64), 0, vol.dims[axis] - 1))
    data = vol.data[np.ix_(idx[0], idx[1], idx[2])]
    return Volume(np.ascontiguousarray(data), target)


def median_spacing(spacings: list[Spacing]) -> Spacing:
    """Per-axis median of case spacings; even counts take the lower median."""
    if not spacings:
        raise VoxsegError("median_spacing needs at least one spacing")
    cols = []
    for axis in range(3):
        vals = sorted(s.as_tuple()[axis] for s in spacings)
        cols.append(vals[(len(vals) - 1) // 2])
    return Spacing(*cols)
