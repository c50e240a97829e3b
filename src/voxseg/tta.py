"""Flip-based test-time augmentation: enumerate axis flips, apply them, and
reduce the returned probability maps to labels.

The one place that undoes a flip, averages flips (``flip_mean``) and takes
the argmax (``label_argmax``), on streams: ``pipeline.reduce_prob_maps``
reads maps one class at a time, ``aggregate`` and ``argmax_labels`` take
them in memory, and both label a voxel with the argmax of its float64 flip
means, the lower class winning an exact tie."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import VoxsegError
from .volume import ProbMap, Volume, check_labelmap

TTA_INFIX = "__tta"  # wire name <case>__tta<k>: the input flipped by the spec tagged k
PROB_INFIX = "_prob_"  # wire name <base>_prob_<c>: a prediction's class-c map


@dataclass(frozen=True)
class FlipSpec:
    """Axis-reversal flags; applying a spec twice is the identity."""

    flip_x: bool = False
    flip_y: bool = False
    flip_z: bool = False

    @property
    def reverse(self) -> tuple[slice, slice, slice]:
        """Index that views an (nx, ny, nz) array with this spec's axes
        reversed; ``(..., *reverse)`` does so for any leading axes."""
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
    """Axis-reversed copy of a (…, nx, ny, nz) array in the same memory layout."""
    return data[(..., *spec.reverse)].copy(order="K")


def apply_flip(vol: Volume, spec: FlipSpec) -> Volume:
    """Axis-reversed copy of a volume; spacing is unchanged."""
    return vol.with_data(flip_array(vol.data, spec))


def apply_flip_prob(prob: ProbMap, spec: FlipSpec) -> ProbMap:
    return ProbMap(flip_array(prob.probs, spec), prob.classes, prob.spacing)


def flip_mean(maps: Iterable[tuple[FlipSpec, np.ndarray]]) -> np.ndarray:
    """Float64 mean of ``(spec, array)`` pairs, (nx, ny, nz) or class-first
    (C, nx, ny, nz), each unflipped by its spec and added in order.

    Each array is dropped before the next is drawn, so a generator that loads
    each one when asked keeps one in memory; the mean has the first's layout."""
    acc = None
    count = 0
    for spec, data in maps:
        if acc is None:
            acc = np.zeros_like(data, dtype=np.float64)
        acc += data[(..., *spec.reverse)]
        count += 1
        del data
    if acc is None:
        raise VoxsegError("a flip mean needs at least one entry")
    acc /= count
    return acc


def label_argmax(channels: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """uint8 labels taking, per voxel, the lowest class id whose array is
    largest, from ``(class_id, array)`` pairs in ascending class order.

    Each array is folded into a running maximum and dropped before the next
    is drawn; the labels have the first array's layout."""
    best = labels = None
    for c, channel in channels:
        if best is None:
            best = channel.copy(order="K")  # folded into below; the caller's array is kept
            labels = np.full_like(channel, c, dtype=np.uint8)
        else:
            wins = channel > best  # strict: the lower class keeps a tie
            # c exceeds every earlier class id, and masked copies are slow
            np.maximum(labels, wins * np.uint8(c), out=labels)
            np.maximum(best, channel, out=best)
        del channel
    return labels


def aggregate(entries: Iterable[tuple[FlipSpec, ProbMap]]) -> ProbMap:
    """Float64 mean of probability maps after undoing each entry's flip.

    Each entry must be the model output for the correspondingly flipped
    input, with the first entry's dims and classes.  Entries stream through
    ``flip_mean``, so a generator that loads each map keeps one in memory."""
    first = {}

    def arrays():
        for spec, prob in entries:
            if not first:
                first.update(dims=prob.dims, classes=prob.classes, spacing=prob.spacing)
            elif (prob.dims, prob.classes) != (first["dims"], first["classes"]):
                raise VoxsegError(
                    f"mismatched prob maps: dims {first['dims']} vs {prob.dims}, "
                    f"classes {first['classes']} vs {prob.classes}"
                )
            yield spec, prob.probs
            del prob  # let the next entry's map replace this one, not join it

    mean = flip_mean(arrays())
    return ProbMap(mean, first["classes"], first["spacing"])


def argmax_labels(prob: ProbMap) -> Volume:
    """Label map taking, per voxel, the lowest class id at maximum
    probability; it keeps each channel's layout, with no transpose."""
    labels = label_argmax(zip(prob.classes, prob.probs))
    return check_labelmap(Volume(labels, prob.spacing))
