"""Label fusion: voxelwise voting across pseudo-label sources and
merging of partial ground truth with pseudo labels.

Background (0) counts as a vote. Ground-truth foreground always wins
over pseudo labels. Partial-label background is treated as unknown by
default, so pseudo labels may fill it; set ``gt_background_trust`` to
suppress pseudo claims of classes the ground truth annotates. Every
map combined must lie on one grid: equal dims, and spacings equal within
``Spacing.close_to``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import VoxsegError
from .volume import TUMOR_CLASS, Volume, check_labelmap, check_same_grid, labelmap_like


@dataclass(frozen=True)
class FusionPolicy:
    """Precedence rules for combining label sources.

    ``source_priority`` orders tie-breaking (highest first). ``min_votes``,
    when set, zeroes any winning foreground class with fewer votes; the
    default keeps every plurality winner.
    """

    source_priority: tuple[str, ...] = ("own",)
    tumor_overrides_organ: bool = True
    gt_background_trust: bool = False
    min_votes: int | None = None

    def __post_init__(self):
        if not self.source_priority:
            raise VoxsegError("source_priority must be non-empty")
        if len(set(self.source_priority)) != len(self.source_priority):
            raise VoxsegError(f"duplicate source ids in priority: {self.source_priority}")
        if self.min_votes is not None and self.min_votes < 1:
            raise VoxsegError(f"min_votes must be positive, got {self.min_votes}")


def _classes_present(data: np.ndarray) -> set[int]:
    """The values of a checked label map, as plain ints."""
    counts = np.bincount(data.ravel(order="K"), minlength=TUMOR_CLASS + 1)
    return set(np.flatnonzero(counts).tolist())


@dataclass(frozen=True)
class PartialLabel:
    """A ground-truth map covering only ``annotated_classes``; voxels of
    other classes are indistinguishable from background."""

    map: Volume
    annotated_classes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        check_labelmap(self.map)
        bad = _classes_present(self.map.data) - {0} - set(self.annotated_classes)
        if bad:
            raise VoxsegError(
                f"ground truth contains classes {sorted(bad)} outside its annotated set "
                f"{sorted(self.annotated_classes)}"
            )

    def foreground(self) -> np.ndarray:
        return self.map.data != 0


def majority_vote(sources: list[tuple[str, Volume]], policy: FusionPolicy) -> Volume:
    """Per-voxel plurality vote; ties go to the earliest priority source
    whose vote is among the tied classes."""
    if not sources:
        raise VoxsegError("majority_vote needs at least one source")
    unknown = [sid for sid, _ in sources if sid not in policy.source_priority]
    if unknown:
        raise VoxsegError(f"unknown source ids {unknown}; priority lists {list(policy.source_priority)}")
    maps = [m for _, m in sources]
    for m in maps:
        check_labelmap(m)
    check_same_grid(sources)

    # agree[i]: how many sources vote like source i, i.e. its class's count;
    # the plurality count is the largest of these
    datas = [m.data for m in maps]
    agree = []
    for d in datas:
        n = np.zeros_like(d, dtype=np.int16)
        for e in datas:
            n += d == e
        agree.append(n)
    best = functools.reduce(np.maximum, agree)

    # Tie-break by priority: walk sources from highest priority down and
    # keep the first whose vote attains the maximum count.
    rank = {sid: i for i, sid in enumerate(policy.source_priority)}
    order = sorted(range(len(sources)), key=lambda i: rank[sources[i][0]])
    out = np.zeros_like(datas[0])
    decided = np.zeros_like(datas[0], dtype=bool)
    for i in order:
        hits = ~decided & (agree[i] == best)
        np.copyto(out, datas[i], where=hits)
        decided |= hits
    if policy.min_votes is not None:
        out[(out != 0) & (best < policy.min_votes)] = 0
    return labelmap_like(out, maps[0])


def merge_partial(gt: PartialLabel, pseudo: Volume, policy: FusionPolicy) -> Volume:
    """Overlay partial ground truth onto a pseudo-label map.

    GT foreground always wins. At GT-background voxels the pseudo value
    is kept, unless it belongs to a GT-annotated class and
    ``gt_background_trust`` is set.
    """
    check_labelmap(pseudo)
    check_same_grid([("gt", gt.map), ("pseudo", pseudo)])
    out = pseudo.data.copy(order="K")
    fg = gt.foreground()
    if policy.gt_background_trust and gt.annotated_classes:
        out[np.isin(out, sorted(gt.annotated_classes)) & ~fg] = 0
    out[fg] = gt.map.data[fg]
    return labelmap_like(out, pseudo)


def merge_organ_tumor(
    organ: Volume, tumor: Volume, tumor_overrides_organ: bool = True
) -> Volume:
    """Combine an organ-only map with a tumor-only map into one label map."""
    check_labelmap(organ)
    check_labelmap(tumor)
    check_same_grid([("organ", organ), ("tumor", tumor)])
    if np.any(organ.data == TUMOR_CLASS):
        raise VoxsegError(f"organ map already contains tumor class {TUMOR_CLASS}")
    tumor_values = _classes_present(tumor.data)
    if not tumor_values <= {0, TUMOR_CLASS}:
        raise VoxsegError(f"tumor map contains organ classes {sorted(tumor_values - {0, TUMOR_CLASS})}")
    out = organ.data.copy(order="K")
    tmask = tumor.data == TUMOR_CLASS
    if not tumor_overrides_organ:
        tmask &= organ.data == 0
    out[tmask] = TUMOR_CLASS
    return labelmap_like(out, organ)
