import json

import numpy as np
import pytest

from voxseg.errors import SegmenterError
from voxseg.metrics import dsc
from voxseg.mock_segmenter import (
    BAND_K,
    MODEL_FILE,
    STD_FLOOR,
    load_model,
    predict,
    predict_volume,
    train,
)
from voxseg.nifti import load_nifti, save_nifti
from voxseg.tta import argmax_labels
from voxseg.volume import Spacing, Volume


def _write_pair(root, case, image, labels):
    (root / "img").mkdir(exist_ok=True)
    (root / "lab").mkdir(exist_ok=True)
    save_nifti(Volume(image, Spacing(1, 1, 1)), root / "img" / f"{case}.nii.gz")
    save_nifti(Volume(labels, Spacing(1, 1, 1)), root / "lab" / f"{case}.nii.gz")


def _blob_case(offset):
    image = np.zeros((8, 8, 4), dtype=np.int16)
    labels = np.zeros((8, 8, 4), dtype=np.uint8)
    image[1:4, 1:4, 1:3] = 100 + offset
    labels[1:4, 1:4, 1:3] = 5
    image[5:7, 5:7, 1:3] = 200 + offset
    labels[5:7, 5:7, 1:3] = 14
    return image, labels


def test_train_pooled_statistics(tmp_path):
    _write_pair(tmp_path, "a", *_blob_case(0))
    _write_pair(tmp_path, "b", *_blob_case(4))
    model = train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")
    assert model["classes"] == [5, 14]
    s5 = model["stats"]["5"]
    # pooled voxels: 18 at 100 and 18 at 104 -> mean 102, population std 2
    assert s5["count"] == 36
    assert abs(s5["mean"] - 102.0) < 1e-12
    assert abs(s5["std"] - 2.0) < 1e-12
    assert model["band_k"] == BAND_K == 2.5
    assert model["std_floor"] == STD_FLOOR == 2.0
    # model file is written and loads back identically
    assert (tmp_path / "model" / MODEL_FILE).is_file()
    assert load_model(tmp_path / "model") == model


def test_train_requires_images_and_labels(tmp_path):
    (tmp_path / "img").mkdir()
    (tmp_path / "lab").mkdir()
    with pytest.raises(SegmenterError, match="no training images"):
        train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")
    save_nifti(
        Volume(np.zeros((2, 2, 2), dtype=np.int16), Spacing(1, 1, 1)),
        tmp_path / "img" / "a.nii.gz",
    )
    with pytest.raises(SegmenterError, match="no label"):
        train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")


def test_load_model_missing(tmp_path):
    with pytest.raises(SegmenterError, match="no trained model"):
        load_model(tmp_path)


def test_predict_volume_probabilities_sum_to_one(tmp_path):
    _write_pair(tmp_path, "a", *_blob_case(0))
    model = train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")
    image = load_nifti(tmp_path / "img" / "a.nii.gz")
    prob = predict_volume(model, image)
    assert prob.probs.min() >= 0 and prob.probs.max() <= 1
    assert np.abs(prob.probs.sum(axis=0) - 1).max() < 1e-4
    assert prob.classes == (0, 5, 14)


def test_self_consistency(tmp_path):
    # predicting the training case recovers its own labels almost exactly
    image, labels = _blob_case(0)
    _write_pair(tmp_path, "a", image, labels)
    model = train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")
    prob = predict_volume(model, load_nifti(tmp_path / "img" / "a.nii.gz"))
    pred = argmax_labels(prob)
    for c in (5, 14):
        assert dsc(pred.data == c, labels == c) >= 0.9


def test_band_widens_with_pooled_training(tmp_path):
    # a held-out offset outside the single-case band falls inside the
    # pooled two-case band
    image_far, labels_far = _blob_case(8)

    _write_pair(tmp_path, "a", *_blob_case(0))
    model_one = train(tmp_path / "img", tmp_path / "lab", tmp_path / "m1")
    pred_one = argmax_labels(predict_volume(model_one, Volume(image_far, Spacing(1, 1, 1))))
    assert not (pred_one.data == 14).any()  # 208 outside [195, 205]

    # adding offset 5 pools to mean 202.5, std 2.5 -> band [196.25, 208.75]
    _write_pair(tmp_path, "b", *_blob_case(5))
    model_two = train(tmp_path / "img", tmp_path / "lab", tmp_path / "m2")
    pred_two = argmax_labels(predict_volume(model_two, Volume(image_far, Spacing(1, 1, 1))))
    assert dsc(pred_two.data == 14, labels_far == 14) == 1.0


def test_predict_writes_outputs_both_modes(tmp_path):
    _write_pair(tmp_path, "a", *_blob_case(0))
    train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")

    done = predict(tmp_path / "model", tmp_path / "img", tmp_path / "out_l", mode="labels")
    assert done == ["a"]
    lab = load_nifti(tmp_path / "out_l" / "a.nii.gz")
    assert lab.data.dtype == np.uint8

    predict(tmp_path / "model", tmp_path / "img", tmp_path / "out_p", mode="probabilities")
    names = sorted(p.name for p in (tmp_path / "out_p").glob("*.nii.gz"))
    assert names == ["a_prob_0.nii.gz", "a_prob_14.nii.gz", "a_prob_5.nii.gz"]
    chans = [load_nifti(tmp_path / "out_p" / n).data for n in ["a_prob_0.nii.gz", "a_prob_5.nii.gz", "a_prob_14.nii.gz"]]
    total = np.sum(chans, axis=0)
    assert np.allclose(total, 1.0, atol=1e-4)


def test_predict_mode_validation(tmp_path):
    with pytest.raises(SegmenterError, match="bad predict mode"):
        predict(tmp_path, tmp_path, tmp_path, mode="argmax")


def test_predict_requires_inputs(tmp_path):
    _write_pair(tmp_path, "a", *_blob_case(0))
    train(tmp_path / "img", tmp_path / "lab", tmp_path / "model")
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(SegmenterError, match="no images"):
        predict(tmp_path / "model", empty, tmp_path / "out")


def test_training_is_deterministic(tmp_path):
    _write_pair(tmp_path, "a", *_blob_case(0))
    _write_pair(tmp_path, "b", *_blob_case(5))
    train(tmp_path / "img", tmp_path / "lab", tmp_path / "m1")
    train(tmp_path / "img", tmp_path / "lab", tmp_path / "m2")
    assert (tmp_path / "m1" / MODEL_FILE).read_bytes() == (tmp_path / "m2" / MODEL_FILE).read_bytes()
