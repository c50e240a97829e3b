"""A deterministic stand-in for the external segmenter.

The model is a per-class intensity band fitted on the pooled training
voxels: class ``c`` gets ``[mean - k*sigma, mean + k*sigma]`` (with a
floor on sigma so single-intensity classes still form a band).  At
predict time each voxel scores ``sigmoid((x-lo)/T) * sigmoid((hi-x)/T)``
per class, background gets ``1 - max_c score_c``, and the scores are
normalized to a probability map.  More training cases widen the pooled
bands, so coverage of held-out intensity offsets genuinely improves
with training-set size — which is what the fixture pipeline relies on.

Runs either in-process (functions below) or as a subprocess through the
``voxseg mock-segmenter`` CLI, matching the segmenter contract.
"""
from __future__ import annotations

import json
import logging
import math
from pathlib import Path

import numpy as np

from .errors import SegmenterError
from .nifti import load_nifti, nifti_files, save_nifti
from .tta import PROB_INFIX, argmax_labels
from .volume import ProbMap, Volume, check_labelmap

log = logging.getLogger(__name__)

BAND_K = 2.5
STD_FLOOR = 2.0
TEMPERATURE = 0.5

MODEL_FILE = "model.json"


def train(train_dir, label_dir, model_dir) -> dict:
    """Fit pooled per-class intensity statistics and write model.json."""
    images = nifti_files(train_dir)
    if not images:
        raise SegmenterError(f"no training images in {train_dir}")
    labels = nifti_files(label_dir)
    sums: dict[int, float] = {}
    sqs: dict[int, float] = {}
    counts: dict[int, int] = {}
    for case, img_path in images.items():
        if case not in labels:
            raise SegmenterError(f"no label for training case {case!r} in {label_dir}")
        img = load_nifti(img_path)
        lab = check_labelmap(load_nifti(labels[case]))
        if lab.dims != img.dims:
            raise SegmenterError(f"case {case!r}: label dims {lab.dims} != image dims {img.dims}")
        data = img.data.astype(np.float64)
        for c in np.unique(lab.data):
            c = int(c)
            if c == 0:
                continue
            vals = data[lab.data == c]
            sums[c] = sums.get(c, 0.0) + float(vals.sum())
            sqs[c] = sqs.get(c, 0.0) + float(np.square(vals).sum())
            counts[c] = counts.get(c, 0) + vals.size
    stats = {}
    for c in sorted(counts):
        n = counts[c]
        mean = sums[c] / n
        var = max(sqs[c] / n - mean * mean, 0.0)
        stats[str(c)] = {"mean": mean, "std": math.sqrt(var), "count": n}
    model = {
        "classes": sorted(counts),
        "stats": stats,
        "band_k": BAND_K,
        "std_floor": STD_FLOOR,
        "temperature": TEMPERATURE,
    }
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    with open(model_dir / MODEL_FILE, "w") as fh:
        json.dump(model, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("trained mock model on %d cases, classes %s", len(images), model["classes"])
    return model


def load_model(model_dir) -> dict:
    path = Path(model_dir) / MODEL_FILE
    if not path.exists():
        raise SegmenterError(f"no trained model at {path}")
    with open(path) as fh:
        return json.load(fh)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # never overflows, unlike 1/(1+exp(-x)) for very negative x
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def predict_volume(model: dict, image: Volume) -> ProbMap:
    """Score one image against the fitted bands."""
    classes = [int(c) for c in model["classes"]]
    k = float(model.get("band_k", BAND_K))
    floor = float(model.get("std_floor", STD_FLOOR))
    temp = float(model.get("temperature", TEMPERATURE))
    x = image.data.astype(np.float64)
    raw = np.zeros((len(classes) + 1,) + image.dims, dtype=np.float64)
    for i, c in enumerate(classes):
        s = model["stats"][str(c)]
        half = k * max(float(s["std"]), floor)
        lo, hi = float(s["mean"]) - half, float(s["mean"]) + half
        raw[i + 1] = _sigmoid((x - lo) / temp) * _sigmoid((hi - x) / temp)
    raw[0] = 1.0 - raw[1:].max(axis=0) if classes else 1.0
    total = raw.sum(axis=0)
    probs = (raw / total).astype(np.float32)
    return ProbMap(probs=probs, classes=(0, *classes), spacing=image.spacing)


def predict(model_dir, input_dir, output_dir, mode: str = "probabilities") -> list[str]:
    """Predict every image in input_dir; returns the case ids handled."""
    if mode not in ("labels", "probabilities"):
        raise SegmenterError(f"bad predict mode {mode!r}")
    model = load_model(model_dir)
    images = nifti_files(input_dir)
    if not images:
        raise SegmenterError(f"no images to predict in {input_dir}")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    done = []
    for case, img_path in images.items():
        image = load_nifti(img_path)
        prob = predict_volume(model, image)
        if mode == "labels":
            save_nifti(argmax_labels(prob), output_dir / f"{case}.nii.gz")
        else:
            for i, c in enumerate(prob.classes):
                chan = Volume(np.ascontiguousarray(prob.probs[i]), prob.spacing)
                save_nifti(chan, output_dir / f"{case}{PROB_INFIX}{c}.nii.gz")
        done.append(case)
    log.info("mock predict: %d cases -> %s (%s)", len(done), output_dir, mode)
    return done
