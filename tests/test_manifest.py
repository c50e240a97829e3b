import json

import numpy as np
import pytest

from voxseg.errors import ManifestError
from voxseg.manifest import (
    STATUSES,
    CaseRecord,
    Manifest,
    load_manifest,
)
from voxseg.nifti import save_nifti
from voxseg.volume import ORGAN_CLASSES, TUMOR_CLASS, Spacing, Volume

ALL_CLASSES = frozenset(ORGAN_CLASSES) | {TUMOR_CLASS}


def _write_case(root, case_id, with_label=True):
    img = Volume(np.zeros((3, 3, 3), dtype=np.int16), Spacing(1, 1, 1))
    save_nifti(img, root / f"{case_id}.nii.gz")
    if with_label:
        lab = Volume(np.zeros((3, 3, 3), dtype=np.uint8), Spacing(1, 1, 1))
        save_nifti(lab, root / f"{case_id}_gt.nii.gz")


def _entry(case_id, status, classes=None, with_label=True):
    e = {
        "case_id": case_id,
        "image_path": f"{case_id}.nii.gz",
        "annotation_status": status,
    }
    if with_label:
        e["label_path"] = f"{case_id}_gt.nii.gz"
    if classes is not None:
        e["annotated_classes"] = classes
    return e


def _write_manifest(root, entries):
    path = root / "manifest.json"
    path.write_text(json.dumps(entries))
    return path


def test_load_mixed_statuses(tmp_path):
    _write_case(tmp_path, "a")
    _write_case(tmp_path, "b")
    _write_case(tmp_path, "c")
    _write_case(tmp_path, "d", with_label=False)
    path = _write_manifest(
        tmp_path,
        [
            _entry("a", "full"),
            _entry("b", "tumor_only"),
            _entry("c", "organ_only", classes=[1, 3]),
            _entry("d", "unlabeled", with_label=False),
        ],
    )
    m = load_manifest(path)
    assert len(m.cases) == 4
    assert m.status_counts() == {"full": 1, "tumor_only": 1, "organ_only": 1, "unlabeled": 1}
    assert m.case("a").annotated_classes == ALL_CLASSES
    assert m.case("b").annotated_classes == frozenset({14})
    assert m.case("c").annotated_classes == frozenset({1, 3})
    assert m.case("d").annotated_classes == frozenset()
    assert m.image_file(m.case("a")).is_file()
    assert m.label_file(m.case("d")) is None


def test_annotates_helper(tmp_path):
    rec = CaseRecord("x", "x.nii.gz", "x_gt.nii.gz", "tumor_only", frozenset({14}))
    assert rec.annotates({14})
    assert not rec.annotates(range(1, 14))
    assert STATUSES == ("full", "tumor_only", "organ_only", "unlabeled")


def test_duplicate_case_id_rejected():
    a = CaseRecord("x", "x.nii.gz", "x_gt.nii.gz", "full", ALL_CLASSES)
    with pytest.raises(ManifestError, match="duplicate"):
        Manifest(root=None, cases=(a, a))


def test_no_such_case():
    m = Manifest(root=None, cases=())
    with pytest.raises(ManifestError, match="no such case"):
        m.case("ghost")


def test_status_class_consistency():
    # tumor_only cannot claim organ classes
    with pytest.raises(ManifestError, match="inconsistent"):
        CaseRecord("x", "i", "l", "tumor_only", frozenset({1, 14}))
    with pytest.raises(ManifestError, match="inconsistent"):
        CaseRecord("x", "i", "l", "full", frozenset({1}))
    # organ_only needs a nonempty organ subset
    with pytest.raises(ManifestError, match="organ_only"):
        CaseRecord("x", "i", "l", "organ_only", frozenset())
    with pytest.raises(ManifestError, match="organ_only"):
        CaseRecord("x", "i", "l", "organ_only", frozenset({14}))
    ok = CaseRecord("x", "i", "l", "organ_only", frozenset({2, 13}))
    assert ok.annotates(ORGAN_CLASSES)


def test_label_path_presence_tracks_status():
    with pytest.raises(ManifestError, match="label_path"):
        CaseRecord("x", "i", None, "full", ALL_CLASSES)
    with pytest.raises(ManifestError, match="label_path"):
        CaseRecord("x", "i", "l", "unlabeled", frozenset())


def test_invalid_case_ids():
    for bad in ("", "has space", "-leading", "a_prob_1", "x__tta0"):
        with pytest.raises(ManifestError, match="invalid case id"):
            CaseRecord(bad, "i", "l", "full", ALL_CLASSES)
    CaseRecord("Case-07_b", "i", "l", "full", ALL_CLASSES)  # legal


def test_unknown_status():
    with pytest.raises(ManifestError, match="unknown status"):
        CaseRecord("x", "i", "l", "partial", frozenset({1}))


def test_missing_image_rejected(tmp_path):
    path = _write_manifest(tmp_path, [_entry("a", "full")])
    with pytest.raises(ManifestError, match="missing image"):
        load_manifest(path)


def test_missing_label_rejected(tmp_path):
    _write_case(tmp_path, "a", with_label=True)
    (tmp_path / "a_gt.nii.gz").unlink()
    path = _write_manifest(tmp_path, [_entry("a", "full")])
    with pytest.raises(ManifestError, match="missing label"):
        load_manifest(path)


def test_organ_only_requires_explicit_classes(tmp_path):
    _write_case(tmp_path, "a")
    path = _write_manifest(tmp_path, [_entry("a", "organ_only")])
    with pytest.raises(ManifestError, match="annotated_classes required"):
        load_manifest(path)


def test_missing_status_is_named(tmp_path):
    _write_case(tmp_path, "a")
    entry = _entry("a", "full")
    del entry["annotation_status"]
    with pytest.raises(ManifestError, match="case 'a': no annotation_status"):
        load_manifest(_write_manifest(tmp_path, [entry]))
    with pytest.raises(ManifestError, match="case 'a': unknown status 'partial'"):
        load_manifest(_write_manifest(tmp_path, [_entry("a", "partial")]))


def test_not_an_array(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"cases": []}))
    with pytest.raises(ManifestError, match="JSON array"):
        load_manifest(path)
    path.write_text("{not json")
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(path)
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")


def test_malformed_records_are_manifest_errors(tmp_path):
    _write_case(tmp_path, "a")
    for entries, match in [
        (["case_a"], "case record must be a JSON object"),
        ([_entry("a", "organ_only", classes=["liver"])], "annotated_classes must be class ids"),
        ([_entry("a", "organ_only", classes=3)], "annotated_classes must be class ids"),
        ([_entry("a", "organ_only", classes="135")], "annotated_classes must be class ids"),
        ([_entry("a", "organ_only", classes=[1.9, 3])], "annotated_classes must be class ids"),
        ([_entry("a", "organ_only", classes=["3"])], "annotated_classes must be class ids"),
        ([_entry("a", "organ_only", classes=[True])], "annotated_classes must be class ids"),
        ([dict(_entry("a", "full"), case_id=7)], "not a string: case_id"),
        ([dict(_entry("a", "full"), annotation_status=["full"])], "not a string: annotation_status"),
    ]:
        with pytest.raises(ManifestError, match=match):
            load_manifest(_write_manifest(tmp_path, entries))


def test_explicit_root_override(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _write_case(data, "a")
    path = _write_manifest(tmp_path, [_entry("a", "full")])
    with pytest.raises(ManifestError):
        load_manifest(path)  # default root lacks the files
    m = load_manifest(path, root=data)
    assert m.root == data
