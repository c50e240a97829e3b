"""Replay segmenter for the ct workload; stdlib only, never imports voxseg.

``train`` records which classes the teacher labels hold: only the tumor
means the tumor phase, anything else the organ phase.  ``predict`` copies
the precomputed per-flip probability maps of that phase for every input
image, under the names the segmenter contract asks for
(``<case>__tta<k>_prob_<class>.nii.gz``).

    python3 replay_segmenter.py train --label-dir L --model-dir M
    python3 replay_segmenter.py predict --maps D --model-dir M --input-dir I --output-dir O
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import struct
import sys
from pathlib import Path

TUMOR = 14
UINT8 = 2


def label_classes(path: Path) -> set[int]:
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    (code,) = struct.unpack_from("<h", raw, 70)
    (offset,) = struct.unpack_from("<f", raw, 108)
    if code != UINT8:
        raise SystemExit(f"{path}: label maps must be uint8, got datatype {code}")
    return set(raw[int(offset):]) - {0}


def train(args) -> None:
    classes = set()
    for path in sorted(Path(args.label_dir).iterdir()):
        classes |= label_classes(path)
    if not classes:
        raise SystemExit(f"no labelled voxels in {args.label_dir}")
    model = {"phase": "tumor" if classes == {TUMOR} else "organ", "classes": sorted(classes)}
    Path(args.model_dir).mkdir(parents=True, exist_ok=True)
    (Path(args.model_dir) / "model.json").write_text(json.dumps(model) + "\n")


def predict(args) -> None:
    model = json.loads((Path(args.model_dir) / "model.json").read_text())
    maps = Path(args.maps) / model["phase"]
    by_input: dict[str, list[str]] = {}
    for name in os.listdir(maps):
        by_input.setdefault(name.partition("_prob_")[0], []).append(name)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in sorted(Path(args.input_dir).iterdir()):
        stem = path.name.removesuffix(".gz").removesuffix(".nii")
        if stem not in by_input:
            raise SystemExit(f"no precomputed {model['phase']} maps for {stem!r} in {maps}")
        for name in by_input[stem]:
            shutil.copyfile(maps / name, out / name)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("train")
    t.add_argument("--label-dir", required=True)
    t.add_argument("--model-dir", required=True)
    p = sub.add_parser("predict")
    p.add_argument("--maps", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--input-dir", required=True)
    p.add_argument("--output-dir", required=True)
    args = ap.parse_args(argv)
    {"train": train, "predict": predict}[args.cmd](args)


if __name__ == "__main__":
    main(sys.argv[1:])
