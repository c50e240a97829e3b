"""Flip-based test-time augmentation: enumerate axis flips, undo them on
returned probability maps, and average.

The pipeline does not call ``aggregate`` or ``argmax_labels``: it labels a
TTA case with the argmax of the float64 flip means, read from files one
class at a time (``pipeline.reduce_prob_maps``).  The two agree except
where float32 rounding of the renormalised means reorders two classes."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import VoxsegError
from .volume import ProbMap, Volume, check_labelmap


@dataclass(frozen=True)
class FlipSpec:
    """Axis-reversal flags; applying a spec twice is the identity."""

    flip_x: bool = False
    flip_y: bool = False
    flip_z: bool = False

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate((self.flip_x, self.flip_y, self.flip_z)) if f)

    @property
    def reverse(self) -> tuple[slice, slice, slice]:
        """Index that views an (nx, ny, nz) array with this spec's axes
        reversed; the same view as ``np.flip``, made faster."""
        flags = (self.flip_x, self.flip_y, self.flip_z)
        return tuple(slice(None, None, -1 if f else 1) for f in flags)

    @property
    def tag(self) -> int:
        """Index of this spec in enumerate_flips() order."""
        return (self.flip_x << 2) | (self.flip_y << 1) | self.flip_z


def enumerate_flips() -> list[FlipSpec]:
    """All 8 flip combinations, ordered as a (x, y, z) 3-bit counter."""
    return [
        FlipSpec(bool(k & 4), bool(k & 2), bool(k & 1))
        for k in range(8)
    ]


def flip_array(data: np.ndarray, spec: FlipSpec) -> np.ndarray:
    """Axis-reversed copy of ``data`` in the same memory layout."""
    return np.flip(data, axis=spec.axes).copy(order="K")


def apply_flip(vol: Volume, spec: FlipSpec) -> Volume:
    """Axis-reversed copy of a volume; spacing is unchanged."""
    return vol.with_data(flip_array(vol.data, spec))


def _channel_axes(spec: FlipSpec) -> tuple[int, ...]:
    """``spec``'s axes in a (C, nx, ny, nz) probability array."""
    return tuple(a + 1 for a in spec.axes)


def apply_flip_prob(prob: ProbMap, spec: FlipSpec) -> ProbMap:
    flipped = np.flip(prob.probs, axis=_channel_axes(spec)).copy(order="K")
    return ProbMap(flipped, prob.classes, prob.spacing)


def aggregate(entries: Iterable[tuple[FlipSpec, ProbMap]]) -> ProbMap:
    """Average probability maps after undoing each entry's flip.

    Each entry must be the model output for the correspondingly flipped
    input. Entries are consumed one at a time and added, as flipped views,
    into one float64 accumulator, so a generator that loads each map when
    asked keeps a single map in memory. Rows are renormalized to sum to 1.
    """
    acc = None
    count = 0
    for spec, prob in entries:
        if acc is None:
            dims, classes, spacing = prob.dims, prob.classes, prob.spacing
            acc = np.zeros_like(prob.probs, dtype=np.float64)
        elif prob.dims != dims or prob.classes != classes:
            raise VoxsegError(
                f"mismatched prob maps: dims {dims} vs {prob.dims}, "
                f"classes {classes} vs {prob.classes}"
            )
        acc += np.flip(prob.probs, axis=_channel_axes(spec))
        count += 1
        del prob  # let the next entry's map replace this one, not join it
    if acc is None:
        raise VoxsegError("aggregate needs at least one entry")
    acc /= count
    sums = acc.sum(axis=0)
    if np.any(sums <= 0):
        raise VoxsegError("aggregated probabilities sum to zero at some voxel")
    acc /= sums
    return ProbMap(acc.astype(np.float32), classes, spacing)


def argmax_labels(prob: ProbMap) -> Volume:
    """Label map taking, per voxel, the lowest class id at maximum probability.

    Channels are compared one at a time, so the result keeps the layout
    of each channel and no (nx, ny, nz, C) transpose is made.
    """
    best = prob.probs[0].copy(order="K")
    labels = np.zeros_like(best, dtype=np.uint8)  # channel 0 is background 0
    for channel, class_id in zip(prob.probs[1:], prob.classes[1:]):
        wins = channel > best  # strict: the lower class keeps a tie
        np.copyto(labels, class_id, where=wins)
        np.maximum(best, channel, out=best)
    return check_labelmap(Volume(labels, prob.spacing))
