import json

import numpy as np

from voxseg.fixture import (
    BLOB_BASE,
    BLOB_SIZE,
    CASE_OFFSETS,
    CASE_SHIFTS,
    CASE_STATUS,
    EVAL_CASES,
    FIXTURE_DIMS,
    FIXTURE_SPACING,
    blob_slices,
    make_fixture,
    make_image,
    make_label,
    mock_contract_dict,
)
from voxseg.config import SegmenterContract, load_config
from voxseg.manifest import load_manifest
from voxseg.nifti import load_nifti


def test_blob_geometry():
    for c in (1, 3, 5, 14):
        sl = blob_slices(c)
        assert all(s.stop - s.start == BLOB_SIZE for s in sl)
    # blobs are pairwise disjoint
    lab = make_label((1, 3, 5, 14))
    for c in (1, 3, 5, 14):
        assert (lab.data == c).sum() == BLOB_SIZE**3


def test_each_case_places_its_blobs_inside_the_grid_and_apart_from_every_other(fixture_dataset):
    assert list(CASE_SHIFTS) == list(CASE_OFFSETS)
    labels = {}
    for cid, shift in CASE_SHIFTS.items():
        for c in (1, 3, 5, 14):
            assert all(0 <= s.start and s.stop <= n for s, n in zip(blob_slices(c, shift), FIXTURE_DIMS))
        img = load_nifti(fixture_dataset["root"] / "images" / f"{cid}.nii.gz")
        labels[cid] = (img.data > 0).tobytes()
        assert np.array_equal(img.data > 0, make_label((1, 3, 5, 14), shift).data > 0)
    assert len(set(labels.values())) == len(labels)


def test_image_intensities():
    img = make_image(2.0)
    assert img.dims == FIXTURE_DIMS
    assert img.spacing == FIXTURE_SPACING
    assert img.data.dtype == np.int16  # integral offset
    for c, base in BLOB_BASE.items():
        assert (img.data[blob_slices(c)] == base + 2.0).all()
    assert (make_image(5.5).data.dtype) == np.float32


def test_case_roster():
    assert list(CASE_OFFSETS) == [f"case_{s}" for s in "abcdef"]
    assert CASE_STATUS["case_a"] == "full"
    assert CASE_STATUS["case_f"] == "full"
    assert EVAL_CASES == ("case_f",)
    # held-out case sits beyond every other offset
    others = [v for k, v in CASE_OFFSETS.items() if k != "case_f"]
    assert CASE_OFFSETS["case_f"] > max(others)


def test_mock_contract_is_valid():
    d = mock_contract_dict()
    contract = SegmenterContract(**d)
    assert contract.output_mode == "probabilities"
    labels = SegmenterContract(**mock_contract_dict(output_mode="labels"))
    assert "--mode labels" in labels.predict_cmd


def test_make_fixture_layout(fixture_dataset):
    paths = fixture_dataset
    manifest = load_manifest(paths["manifest"])
    assert manifest.status_counts() == {
        "full": 2,
        "tumor_only": 1,
        "organ_only": 1,
        "unlabeled": 2,
    }
    assert manifest.case("case_c").annotated_classes == frozenset({1, 3, 5})
    config = load_config(paths["config"])
    assert config.eval_cases == ("case_f",)
    assert config.segmenter is not None

    # labels only hold the classes each status annotates
    lab_b = load_nifti(paths["root"] / "labels" / "case_b.nii.gz")
    assert set(np.unique(lab_b.data)) == {0, 14}
    lab_c = load_nifti(paths["root"] / "labels" / "case_c.nii.gz")
    assert set(np.unique(lab_c.data)) == {0, 1, 3, 5}
    assert not (paths["root"] / "labels" / "case_d.nii.gz").exists()


def test_make_fixture_is_byte_deterministic(tmp_path):
    a = make_fixture(tmp_path / "a")
    b = make_fixture(tmp_path / "b")
    for rel in sorted(p.relative_to(a["root"]) for p in a["root"].rglob("*") if p.is_file()):
        assert (a["root"] / rel).read_bytes() == (b["root"] / rel).read_bytes(), rel


def test_fixture_config_rounds(tmp_path):
    paths = make_fixture(tmp_path, rounds=(1, 0), tta=False)
    raw = json.loads(paths["config"].read_text())
    assert raw["rounds_tumor"] == 1
    assert raw["rounds_organ"] == 0
    assert raw["tta"] is False
