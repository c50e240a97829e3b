"""Synthetic six-case dataset for end-to-end pipeline tests.

Each case is a 24x24x16 volume (spacing 1x1x2.5 mm) holding four 4x4x4
blobs: organs 1, 3, 5 and a tumor (14).  Blob intensity is a per-class
base plus a per-case offset, so a band model trained on few cases misses
the far-offset held-out case and captures it once the pseudo-labeled
mid-offset cases join the training pool.  Each case shifts its four blobs
by its own voxel offset, so no two cases share a label map and a case's
labels written into another case's file would show:

    case    offset  shift       annotation      role
    case_a   0.0    (0, 0, 0)   full            teacher for both phases
    case_b   2.0    (1, 2, 0)   tumor_only      tumor teacher, organ student
    case_c   4.0    (2, 4, 1)   organ_only      organ teacher, tumor student
    case_d   5.0    (3, 6, -1)  unlabeled       student
    case_e   5.5    (4, 8, 2)   unlabeled       student
    case_f   8.0    (5, 1, -2)  full            held-out evaluation case

Round 1 bands (teacher offsets {0,2} or {0,4}, sigma floored at 2.0)
span about +/-5 around their mean, which covers offsets up to ~7 but not
case_f at 8; round 2 pools offsets {0..5.5} and reaches it.
"""
from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import numpy as np

from .nifti import save_nifti
from .volume import Spacing, Volume

FIXTURE_DIMS = (24, 24, 16)
FIXTURE_SPACING = Spacing(1.0, 1.0, 2.5)

BLOB_SIZE = 4
BLOB_Z0 = 6
# (x0, y0) corner per class; all blobs share the z range
BLOB_CORNERS = {1: (2, 2), 3: (10, 2), 5: (2, 10), 14: (10, 10)}
BLOB_BASE = {1: 40.0, 3: 70.0, 5: 100.0, 14: 130.0}

CASE_OFFSETS = {
    "case_a": 0.0,
    "case_b": 2.0,
    "case_c": 4.0,
    "case_d": 5.0,
    "case_e": 5.5,
    "case_f": 8.0,
}
# (dx, dy, dz) added to every blob of the case; all blobs stay inside the grid
CASE_SHIFTS = {
    "case_a": (0, 0, 0),
    "case_b": (1, 2, 0),
    "case_c": (2, 4, 1),
    "case_d": (3, 6, -1),
    "case_e": (4, 8, 2),
    "case_f": (5, 1, -2),
}
CASE_STATUS = {
    "case_a": "full",
    "case_b": "tumor_only",
    "case_c": "organ_only",
    "case_d": "unlabeled",
    "case_e": "unlabeled",
    "case_f": "full",
}
ORGAN_ONLY_CLASSES = (1, 3, 5)
EVAL_CASES = ("case_f",)


def blob_slices(class_id: int, shift=(0, 0, 0)) -> tuple[slice, slice, slice]:
    x0, y0 = BLOB_CORNERS[class_id]
    return tuple(slice(lo + d, lo + d + BLOB_SIZE) for lo, d in zip((x0, y0, BLOB_Z0), shift))


def make_image(offset: float, shift=(0, 0, 0)) -> Volume:
    data = np.zeros(FIXTURE_DIMS, dtype=np.float64)
    for c, base in BLOB_BASE.items():
        data[blob_slices(c, shift)] = base + offset
    # integral intensities round-trip as int16; case_e needs float32
    if offset == int(offset):
        return Volume(data.astype(np.int16), FIXTURE_SPACING)
    return Volume(data.astype(np.float32), FIXTURE_SPACING)


def make_label(classes, shift=(0, 0, 0)) -> Volume:
    data = np.zeros(FIXTURE_DIMS, dtype=np.uint8)
    for c in classes:
        if c in BLOB_CORNERS:
            data[blob_slices(c, shift)] = c
    return Volume(data, FIXTURE_SPACING)


def _label_classes(case_id: str):
    status = CASE_STATUS[case_id]
    if status == "full":
        return tuple(BLOB_CORNERS)
    if status == "tumor_only":
        return (14,)
    if status == "organ_only":
        return ORGAN_ONLY_CLASSES
    return ()


def mock_contract_dict(python: str | None = None, output_mode: str = "probabilities") -> dict:
    """Segmenter-contract entry invoking this package's mock segmenter."""
    exe = shlex.quote(python or sys.executable)
    return {
        "train_cmd": (
            f"{exe} -m voxseg mock-segmenter train"
            " --train-dir {train_dir} --label-dir {label_dir} --model-dir {model_dir}"
        ),
        "predict_cmd": (
            f"{exe} -m voxseg mock-segmenter predict"
            " --model-dir {model_dir} --input-dir {input_dir} --output-dir {output_dir}"
            f" --mode {output_mode}"
        ),
        "output_mode": output_mode,
    }


def make_fixture(root, tta: bool = True, rounds: tuple[int, int] = (2, 2)) -> dict:
    """Write images, labels, manifest.json, and config.json under root.

    Returns the paths of the written manifest and config files.
    """
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)

    records = []
    for case_id, offset in CASE_OFFSETS.items():
        image_rel = f"images/{case_id}.nii.gz"
        save_nifti(make_image(offset, CASE_SHIFTS[case_id]), root / image_rel)
        status = CASE_STATUS[case_id]
        record = {
            "case_id": case_id,
            "image_path": image_rel,
            "annotation_status": status,
        }
        classes = _label_classes(case_id)
        if classes:
            label_rel = f"labels/{case_id}.nii.gz"
            save_nifti(make_label(classes, CASE_SHIFTS[case_id]), root / label_rel)
            record["label_path"] = label_rel
        if status == "organ_only":
            record["annotated_classes"] = list(classes)
        records.append(record)

    manifest_path = root / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")

    config = {
        "rounds_tumor": rounds[0],
        "rounds_organ": rounds[1],
        "tta": tta,
        "eval_cases": list(EVAL_CASES),
        "segmenter": mock_contract_dict(),
    }
    config_path = root / "config.json"
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"root": root, "manifest": manifest_path, "config": config_path}
