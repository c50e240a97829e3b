"""Dataset manifest: one record per CT case with its annotation status.

The manifest file is a JSON array of case records; paths are resolved
relative to the dataset root (by default, the manifest's directory).
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ManifestError
from .tta import PROB_INFIX, TTA_INFIX
from .volume import ORGAN_CLASSES, TUMOR_CLASS

log = logging.getLogger(__name__)

STATUSES = ("full", "tumor_only", "organ_only", "unlabeled")
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_\-]*$")
# substrings reserved by the segmenter wire format
_RESERVED = (PROB_INFIX, TTA_INFIX)
# the annotated classes each status implies; organ_only names its own
_STATUS_CLASSES = {
    "full": frozenset(ORGAN_CLASSES) | {TUMOR_CLASS},
    "tumor_only": frozenset({TUMOR_CLASS}),
    "unlabeled": frozenset(),
}


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    image_path: str
    label_path: str | None
    annotation_status: str
    annotated_classes: frozenset[int]

    def __post_init__(self):
        if not _ID_RE.match(self.case_id) or any(r in self.case_id for r in _RESERVED):
            raise ManifestError(f"invalid case id {self.case_id!r}")
        if self.annotation_status not in STATUSES:
            raise ManifestError(
                f"case {self.case_id}: unknown status {self.annotation_status!r}"
            )
        if self.annotation_status in _STATUS_CLASSES:
            if self.annotated_classes != _STATUS_CLASSES[self.annotation_status]:
                raise ManifestError(
                    f"case {self.case_id}: status {self.annotation_status} inconsistent "
                    f"with annotated classes {sorted(self.annotated_classes)}"
                )
        else:  # organ_only
            if not self.annotated_classes or not self.annotated_classes <= set(ORGAN_CLASSES):
                raise ManifestError(
                    f"case {self.case_id}: organ_only requires a nonempty subset of organ "
                    f"classes, got {sorted(self.annotated_classes)}"
                )
        if (self.label_path is not None) != (self.annotation_status != "unlabeled"):
            raise ManifestError(
                f"case {self.case_id}: label_path must be present iff status is not unlabeled"
            )

    def annotates(self, classes) -> bool:
        return bool(self.annotated_classes & set(classes))


@dataclass(frozen=True)
class Manifest:
    root: Path
    cases: tuple[CaseRecord, ...]

    def __post_init__(self):
        seen = set()
        for rec in self.cases:
            if rec.case_id in seen:
                raise ManifestError(f"duplicate case id {rec.case_id!r}")
            seen.add(rec.case_id)

    def case(self, case_id: str) -> CaseRecord:
        for rec in self.cases:
            if rec.case_id == case_id:
                return rec
        raise ManifestError(f"no such case {case_id!r}")

    def image_file(self, rec: CaseRecord) -> Path:
        return self.root / rec.image_path

    def label_file(self, rec: CaseRecord) -> Path | None:
        return self.root / rec.label_path if rec.label_path else None

    def status_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in STATUSES}
        for rec in self.cases:
            counts[rec.annotation_status] += 1
        return counts


def load_manifest(path, root=None) -> Manifest:
    """Parse and validate a manifest file; referenced files must exist."""
    path = Path(path)
    root = Path(root) if root is not None else path.parent
    try:
        entries = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: manifest must be a JSON array of case records")
    cases = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}: case record must be a JSON object, got {entry!r}")
        wrong = [k for k in ("case_id", "image_path", "label_path", "annotation_status")
                 if entry.get(k) is not None and not isinstance(entry[k], str)]
        if wrong:
            raise ManifestError(f"case {entry.get('case_id')!r}: not a string: {', '.join(wrong)}")
        status = entry.get("annotation_status")
        if status not in STATUSES:
            what = "no annotation_status" if status is None else f"unknown status {status!r}"
            raise ManifestError(f"case {entry.get('case_id')!r}: {what}")
        classes = entry.get("annotated_classes", _STATUS_CLASSES.get(status))
        if classes is None:
            raise ManifestError(
                f"case {entry.get('case_id')!r}: annotated_classes required for status {status!r}"
            )
        if not isinstance(classes, (list, frozenset)) or any(type(c) is not int for c in classes):
            raise ManifestError(
                f"case {entry.get('case_id')!r}: annotated_classes must be class ids, got {classes!r}"
            )
        rec = CaseRecord(
            case_id=entry.get("case_id", ""),
            image_path=entry.get("image_path", ""),
            label_path=entry.get("label_path"),
            annotation_status=status,
            annotated_classes=frozenset(classes),
        )
        if not (root / rec.image_path).is_file():
            raise ManifestError(f"case {rec.case_id}: missing image {root / rec.image_path}")
        if rec.label_path and not (root / rec.label_path).is_file():
            raise ManifestError(f"case {rec.case_id}: missing label {root / rec.label_path}")
        cases.append(rec)
    manifest = Manifest(root=root, cases=tuple(cases))
    log.info(
        "manifest %s: %d cases (%s)",
        path,
        len(cases),
        ", ".join(f"{k}={v}" for k, v in manifest.status_counts().items()),
    )
    return manifest

