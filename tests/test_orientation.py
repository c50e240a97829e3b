"""Every label map voxseg writes is on its case image's header: the image's
orientation bytes reach each output, whatever header the segmenter or an
external source wrote."""
import json
import shutil
import struct

import numpy as np
import pytest

from voxseg.cli import main
from voxseg.config import load_config
from voxseg.fixture import make_label
from voxseg.manifest import load_manifest
from voxseg.nifti import load_nifti, nifti_files, save_nifti
from voxseg.pipeline import run_pipeline
from voxseg.volume import Spacing, Volume

# bytes 252..344 of a header: qform_code 1, then quatern b/c/d and the q offsets
ORIENTED = struct.pack("<hh6f", 1, 0, 0.0, 0.0, 1.0, -12.5, 30.0, 7.25).ljust(92, b"\0")


def _orient(path):
    vol = load_nifti(path)
    save_nifti(Volume(vol.data, vol.spacing, extra=ORIENTED), path)


@pytest.fixture(scope="module")
def oriented_dataset(fixture_dataset, tmp_path_factory):
    """A copy of the fixture whose images and labels all carry ``ORIENTED``."""
    root = tmp_path_factory.mktemp("oriented") / "data"
    shutil.copytree(fixture_dataset["root"], root)
    for sub in ("images", "labels"):
        for path in nifti_files(root / sub).values():
            _orient(path)
    return root


def _outputs(work):
    dirs = [work / "final", work / "pseudo_tumor", work / "pseudo_organ"]
    dirs += sorted(work.glob("rounds/*/train_labels"))
    return [p for d in dirs for p in nifti_files(d).values()]


@pytest.mark.parametrize("mode", ["probabilities", "labels"])
def test_every_written_map_carries_the_image_orientation(oriented_dataset, tmp_path, mode):
    ext = tmp_path / "ext"
    ext.mkdir()
    for cid in ("case_d", "case_e"):  # an external vote written with a blank header
        save_nifti(make_label((1, 3, 5)), ext / f"{cid}.nii.gz")
    seg = json.loads((oriented_dataset / "config.json").read_text())["segmenter"]
    predict = seg["predict_cmd"].replace("--mode probabilities", f"--mode {mode}")
    config = load_config(oriented_dataset / "config.json", overrides=[
        "rounds_tumor=2", "rounds_organ=1", f"segmenter.output_mode={mode}",
        f"segmenter.predict_cmd={predict}",
        f'external_label_dirs={{"ext": "{ext}"}}', 'fusion.source_priority=["ext","own"]',
    ])
    work = tmp_path / "work"
    run_pipeline(load_manifest(oriented_dataset / "manifest.json"), config, work)

    outputs = _outputs(work)
    assert len(nifti_files(work / "final")) == 6
    assert "case_c" in nifti_files(work / "rounds" / "tumor_r1" / "train_labels")  # a student fused in round 0
    blank = [p.relative_to(work) for p in outputs if load_nifti(p).extra != ORIENTED]
    assert not blank, f"{len(blank)} of {len(outputs)} maps lost the image orientation: {blank}"


def test_tta_aggregate_writes_the_first_background_map_header(tmp_path):
    w = np.full((2, 2, 2), 0.9, dtype=np.float32)
    for c, chan, extra in ((0, 1 - w, ORIENTED), (14, w, None)):
        save_nifti(Volume(chan, Spacing(1, 1, 2), extra=extra), tmp_path / f"case_y_prob_{c}.nii.gz")
    out = tmp_path / "labels.nii.gz"
    assert main(["tta-aggregate", "--input-dir", str(tmp_path), "--case", "case_y", "--no-flips",
                 "--out", str(out)]) == 0
    labels = load_nifti(out)
    assert (labels.data == 14).all() and labels.extra == ORIENTED
