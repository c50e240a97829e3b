"""Segmentation accuracy metrics: per-class DSC and NSD, plus cohort
aggregation. The exact anisotropic Euclidean distance transform and the
surface extraction are SciPy's (``ndimage.distance_transform_edt`` and
``ndimage.binary_erosion``).

Conventions: ``evaluate_case`` scores every foreground class (1..14); a
class empty in both maps scores 1.0 (flagged absent); empty in exactly
one scores 0.0. Surfaces are foreground voxels with a 6-neighbor (or grid
boundary) background contact. All distances are in millimeters between
voxel centers.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import VoxsegError
from .volume import (
    CLASS_NAMES, FOREGROUND_CLASSES, ORGAN_CLASSES, Spacing, Volume, as_binary, check_same_grid,
)

_FACE_NEIGHBORS = ndimage.generate_binary_structure(3, 1)


@dataclass(frozen=True)
class NsdParams:
    """Surface-distance tolerance in millimeters."""

    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise VoxsegError(f"tau must be positive, got {self.tau}")


def dsc(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice similarity 2|A∩B| / (|A|+|B|); both empty -> 1, one empty -> 0."""
    pred = as_binary(pred, "pred")
    gt = as_binary(gt, "gt")
    if pred.shape != gt.shape:
        raise VoxsegError(f"dim mismatch: pred {pred.shape} vs gt {gt.shape}")
    p = int(pred.sum())
    g = int(gt.sum())
    if p == 0 and g == 0:
        return 1.0
    if p == 0 or g == 0:
        return 0.0
    inter = int(np.count_nonzero(pred & gt))
    return 2.0 * inter / (p + g)


def edt(mask: np.ndarray, spacing: Spacing) -> np.ndarray:
    """Exact Euclidean distance (mm) from each voxel center to the nearest
    foreground voxel center. All-background input yields +inf everywhere."""
    mask = as_binary(mask)
    if not mask.any():
        return np.full(mask.shape, np.inf)
    return ndimage.distance_transform_edt(~mask, sampling=spacing.as_tuple())


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with at least one 6-neighbor that is background
    or outside the grid."""
    mask = as_binary(mask)
    return mask & ~ndimage.binary_erosion(mask, _FACE_NEIGHBORS, border_value=0)


def nsd(pred: np.ndarray, gt: np.ndarray, spacing: Spacing, params: NsdParams | None = None) -> float:
    """Normalized surface dice: the fraction of both masks' surface voxels
    lying within tau of the opposing surface."""
    params = params or NsdParams()
    pred = as_binary(pred, "pred")
    gt = as_binary(gt, "gt")
    if pred.shape != gt.shape:
        raise VoxsegError(f"dim mismatch: pred {pred.shape} vs gt {gt.shape}")
    p_any = bool(pred.any())
    g_any = bool(gt.any())
    if not p_any and not g_any:
        return 1.0
    if not p_any or not g_any:
        return 0.0
    s_pred = surface_voxels(pred)
    s_gt = surface_voxels(gt)
    d_to_gt = edt(s_gt, spacing)
    d_to_pred = edt(s_pred, spacing)
    tau = params.tau
    close_pred = int(np.count_nonzero(s_pred & (d_to_gt <= tau)))
    close_gt = int(np.count_nonzero(s_gt & (d_to_pred <= tau)))
    return (close_pred + close_gt) / (int(s_pred.sum()) + int(s_gt.sum()))


@dataclass(frozen=True)
class ClassScore:
    dsc: float
    nsd: float
    gt_present: bool
    pred_present: bool

    @property
    def informative(self) -> bool:
        """Whether the class appears in either map (counts toward averages)."""
        return self.gt_present or self.pred_present


@dataclass(frozen=True)
class MetricReport:
    case_id: str
    per_class: dict[int, ClassScore] = field(default_factory=dict)

    def _organ_scores(self, attr: str) -> list[float]:
        return [
            getattr(s, attr)
            for c, s in self.per_class.items()
            if c in ORGAN_CLASSES and s.informative
        ]

    @property
    def organ_average_dsc(self) -> float:
        vals = self._organ_scores("dsc")
        return float(np.mean(vals)) if vals else 1.0

    @property
    def organ_average_nsd(self) -> float:
        vals = self._organ_scores("nsd")
        return float(np.mean(vals)) if vals else 1.0

    def mean_dsc(self) -> float:
        """Mean DSC over the informative classes."""
        vals = [s.dsc for s in self.per_class.values() if s.informative]
        return float(np.mean(vals)) if vals else 1.0

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "per_class": {
                str(c): {
                    "dsc": s.dsc,
                    "nsd": s.nsd,
                    "gt_present": s.gt_present,
                    "pred_present": s.pred_present,
                }
                for c, s in sorted(self.per_class.items())
            },
            "organ_average_dsc": self.organ_average_dsc,
            "organ_average_nsd": self.organ_average_nsd,
        }


def evaluate_case(
    pred: Volume,
    gt: Volume,
    params: NsdParams | None = None,
    case_id: str = "",
) -> MetricReport:
    """Per-class DSC/NSD of every foreground class between two label maps
    sharing a grid."""
    params = params or NsdParams()
    check_same_grid([("pred", pred), ("gt", gt)])
    scores = {}
    for c in FOREGROUND_CLASSES:
        pmask = pred.data == c
        gmask = gt.data == c
        p_any = bool(pmask.any())
        g_any = bool(gmask.any())
        if not p_any and not g_any:
            scores[c] = ClassScore(1.0, 1.0, False, False)
            continue
        scores[c] = ClassScore(
            dsc(pmask, gmask),
            nsd(pmask, gmask, gt.spacing, params),
            g_any,
            p_any,
        )
    return MetricReport(case_id=case_id, per_class=scores)


ORGAN_AVERAGE_KEY = "Organ-Average"


def aggregate_cohort(reports: list[MetricReport]) -> dict:
    """Mean and population standard deviation per class across cases,
    plus the organ-average row."""
    if not reports:
        raise VoxsegError("aggregate_cohort needs at least one report")
    class_ids = sorted({c for r in reports for c in r.per_class})
    rows = {}
    for c in class_ids:
        d = [r.per_class[c].dsc for r in reports if c in r.per_class]
        s = [r.per_class[c].nsd for r in reports if c in r.per_class]
        rows[CLASS_NAMES.get(c, str(c))] = {
            "dsc_mean": float(np.mean(d)),
            "dsc_std": float(np.std(d)),
            "nsd_mean": float(np.mean(s)),
            "nsd_std": float(np.std(s)),
        }
    oa_d = [r.organ_average_dsc for r in reports]
    oa_n = [r.organ_average_nsd for r in reports]
    rows[ORGAN_AVERAGE_KEY] = {
        "dsc_mean": float(np.mean(oa_d)),
        "dsc_std": float(np.std(oa_d)),
        "nsd_mean": float(np.mean(oa_n)),
        "nsd_std": float(np.std(oa_n)),
    }
    return {
        "n_cases": len(reports),
        "mean_dsc": float(np.mean([r.mean_dsc() for r in reports])),
        "per_class": rows,
        "cases": [r.to_dict() for r in reports],
    }


def write_cohort_csv(summary: dict, path) -> None:
    """One row per class in canonical order, then Organ-Average."""
    rows = summary["per_class"]
    name_order = [CLASS_NAMES[c] for c in FOREGROUND_CLASSES] + [ORGAN_AVERAGE_KEY]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "dsc_mean", "dsc_std", "nsd_mean", "nsd_std"])
        for name in name_order:
            if name not in rows:
                continue
            r = rows[name]
            writer.writerow(
                [name, f"{r['dsc_mean']:.6f}", f"{r['dsc_std']:.6f}", f"{r['nsd_mean']:.6f}", f"{r['nsd_std']:.6f}"]
            )


def write_cohort_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
