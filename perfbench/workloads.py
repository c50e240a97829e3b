"""Seeded input generators for the benchmark workloads.

Each generator writes a manifest, a config and every input file under a
root directory and returns a ``Workload`` that also carries the expected
final label arrays.  voxseg sees only the written files; nothing here
imports it.

- ``cohort``: ``COHORT_CASES`` cases of the stock fixture's size and blobs
  with statuses and intensity offsets drawn from the seed, mock segmenter,
  TTA, 1+1 rounds, one ``full`` case held out.
- ``ct``: ``CT_CASES`` CT-like volumes (13 organ ellipsoids and a tumor in
  the liver, noisy int16 intensities) with a replay segmenter that copies
  precomputed per-flip probability maps, TTA, 1+1 rounds and two external
  label sources voted at merge.
"""
from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from niftiio import save

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.sh"
REPLAY = HERE / "replay_segmenter.py"

ORGANS = tuple(range(1, 14))
TUMOR = 14

# --- blob geometry, identical to voxseg.fixture ----------------------------
FIXTURE_DIMS = (24, 24, 16)
FIXTURE_SPACING = (1.0, 1.0, 2.5)
BLOB_SIZE, BLOB_Z0 = 4, 6
BLOB_CORNERS = {1: (2, 2), 3: (10, 2), 5: (2, 10), 14: (10, 10)}
BLOB_BASE = {1: 40.0, 3: 70.0, 5: 100.0, 14: 130.0}
BLOB_ORGANS = (1, 3, 5)

COHORT_CASES = 200
COHORT_STATUSES = ("full", "tumor_only", "organ_only", "unlabeled")
# offsets up to 4 stay inside the bands a 1-round model fits, so every
# case's final labels are exactly its four blobs
COHORT_MAX_OFFSET_HALVES = 8
# held-out mean DSC after the tumor round (the tumor blob alone) and after
# the organ round (all four blobs)
COHORT_DSC = (0.25, 1.0)

# one student: staging its 8 flips at gzip 9 and loading 128 maps per run
# already make this the slowest workload
CT_CASES = {"ct_0": "full", "ct_1": "unlabeled", "ct_2": "full"}
CT_DIMS = (128, 128, 64)  # square in-plane
CT_SPACING = (0.8, 0.8, 2.5)
CT_BODY = 0.85     # body ellipse radius, as a share of half the field of view
CT_RAMP = 0.15      # half-width of a map's 0->1 ramp, in ellipsoid radii
CT_SHIFT = 0.6      # largest per-flip shift of a map, in voxels
CT_EXTERNAL = ("ext_a", "ext_b")
CT_EXTERNAL_NOISE = 0.03  # share of voxels each external source gets wrong
CT_HU = {0: 40.0, TUMOR: 10.0, **{c: 60.0 + 12.0 * c for c in ORGANS}}
# sha256 of the decoded final label arrays on seed 0 (see checks.array_digest)
CT_SEED0_DIGESTS = {
    "ct_0": "d7adf490c7917fec064fc01f8b3a52ef12c16d06d2e3fabaa0b5ed15fbf68769",
    "ct_1": "489b6c77f6dfa41838c146c7e57c2eadc683273cf84bf72f4f7e537c03562c62",
    "ct_2": "90b6b2afd0490b75b6fe503a56f50175dc134b54876824505301f03db1fc1f8d",
}


@dataclass
class Workload:
    manifest: Path
    config: Path
    expected: dict[str, np.ndarray]
    # per case, where the expected labels are fixed; absent means everywhere
    fixed: dict[str, np.ndarray] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    dsc_trajectory: tuple[float, ...] | None = None
    held_out: tuple[str, ...] = ()
    input_bytes: int = 0


def _launched(cmd: str) -> str:
    """Prefix a command template with the benchmark's segmenter timer."""
    return f"bash {shlex.quote(str(LAUNCHER))} {cmd}"


def mock_segmenter() -> dict:
    exe = shlex.quote(sys.executable)
    return {
        "train_cmd": _launched(
            f"{exe} -m voxseg mock-segmenter train"
            " --train-dir {train_dir} --label-dir {label_dir} --model-dir {model_dir}"
        ),
        "predict_cmd": _launched(
            f"{exe} -m voxseg mock-segmenter predict"
            " --model-dir {model_dir} --input-dir {input_dir} --output-dir {output_dir}"
            " --mode probabilities"
        ),
        "output_mode": "probabilities",
    }


def replay_segmenter(maps_dir: Path) -> dict:
    base = f"{shlex.quote(sys.executable)} {shlex.quote(str(REPLAY))}"
    maps = shlex.quote(str(maps_dir))
    return {
        "train_cmd": _launched(f"{base} train --label-dir {{label_dir}} --model-dir {{model_dir}}"),
        "predict_cmd": _launched(
            f"{base} predict --maps {maps} --model-dir {{model_dir}}"
            " --input-dir {input_dir} --output-dir {output_dir}"
        ),
        "output_mode": "probabilities",
    }


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.bytes = 0

    def volume(self, data: np.ndarray, spacing, rel: str) -> str:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.bytes += save(data, spacing, path)
        return rel

    def json(self, data, rel: str) -> Path:
        path = self.root / rel
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return path


def _record(case_id: str, image: str, status: str, label: str | None, organs=None) -> dict:
    rec = {"case_id": case_id, "image_path": image, "annotation_status": status}
    if label is not None:
        rec["label_path"] = label
    if status == "organ_only":
        rec["annotated_classes"] = list(organs)
    return rec


def _status_classes(status: str, organs) -> tuple[int, ...]:
    return {
        "full": (*organs, TUMOR),
        "tumor_only": (TUMOR,),
        "organ_only": tuple(organs),
        "unlabeled": (),
    }[status]


# --- cohort -------------------------------------------------------------------


def _blob(c: int) -> tuple[slice, slice, slice]:
    x0, y0 = BLOB_CORNERS[c]
    return slice(x0, x0 + BLOB_SIZE), slice(y0, y0 + BLOB_SIZE), slice(BLOB_Z0, BLOB_Z0 + BLOB_SIZE)


def blob_image(offset: float) -> np.ndarray:
    data = np.zeros(FIXTURE_DIMS, dtype=np.float64)
    for c, base in BLOB_BASE.items():
        data[_blob(c)] = base + offset
    # integral intensities as int16, others as float32, like voxseg.fixture
    return data.astype(np.int16 if offset == int(offset) else np.float32)


def blob_label(classes) -> np.ndarray:
    data = np.zeros(FIXTURE_DIMS, dtype=np.uint8)
    for c in classes:
        data[_blob(c)] = c
    return data


def _blob_cases(root: Path, cases: dict, config: dict) -> Workload:
    out = _Writer(root)
    full = blob_label(BLOB_CORNERS)
    records, expected = [], {}
    for case_id, (offset, status) in cases.items():
        image = out.volume(blob_image(offset), FIXTURE_SPACING, f"images/{case_id}.nii.gz")
        classes = _status_classes(status, BLOB_ORGANS)
        label = None
        if classes:
            label = out.volume(blob_label(classes), FIXTURE_SPACING, f"labels/{case_id}.nii.gz")
        records.append(_record(case_id, image, status, label, BLOB_ORGANS))
        expected[case_id] = full
    return Workload(
        manifest=out.json(records, "manifest.json"),
        config=out.json(config, "config.json"),
        expected=expected,
        input_bytes=out.bytes,
    )


def cohort_cases(seed: int) -> dict:
    """Equal shares of each status in a seeded order, so every seed does the
    same amount of work; case 0 is ``full``, a teacher for both phases."""
    rng = np.random.default_rng([seed, 1])
    statuses = np.repeat(COHORT_STATUSES, COHORT_CASES // len(COHORT_STATUSES))
    rng.shuffle(statuses[1:])
    offsets = rng.integers(0, COHORT_MAX_OFFSET_HALVES + 1, size=COHORT_CASES) / 2.0
    return {f"c{i:04d}": (float(offsets[i]), str(statuses[i])) for i in range(COHORT_CASES)}


def make_cohort(root: Path, seed: int) -> Workload:
    """The cohort with its last ``full`` case held out, so that every round
    ends with one held-out evaluation (DSC and NSD)."""
    cases = cohort_cases(seed)
    held_out = (max(c for c, (_, status) in cases.items() if status == "full"),)
    config = {
        "rounds_tumor": 1,
        "rounds_organ": 1,
        "tta": True,
        "eval_cases": list(held_out),
        "segmenter": mock_segmenter(),
    }
    wl = _blob_cases(root, cases, config)
    wl.held_out = held_out
    wl.dsc_trajectory = COHORT_DSC
    return wl


# --- ct -----------------------------------------------------------------------


def _ct_geometry(rng) -> dict:
    """Ellipsoid (center, radii) in voxels per class; the tumor sits in organ 1."""
    cell = CT_DIMS[0] // 4
    geo = {}
    for i, c in enumerate(ORGANS):
        gx, gy = divmod(i, 4)
        center = (
            cell * gx + cell / 2 + rng.uniform(-2, 2),
            cell * gy + cell / 2 + rng.uniform(-2, 2),
            CT_DIMS[2] / 2 + rng.uniform(-6, 6),
        )
        radii = (rng.uniform(9, 12), rng.uniform(9, 12), rng.uniform(8, 20))
        geo[c] = (np.array(center), np.array(radii))
    liver_c, liver_r = geo[1]
    geo[TUMOR] = (liver_c + rng.uniform(-2, 2, size=3), liver_r * rng.uniform(0.3, 0.45))
    return geo


def _radius(center, radii, shift=(0.0, 0.0, 0.0)):
    """Normalized ellipsoid radius on the bounding box of its ramp."""
    reach = radii * (1 + CT_RAMP) + CT_SHIFT + 1
    lo = np.maximum(np.floor(center - reach).astype(int), 0)
    hi = np.minimum(np.ceil(center + reach).astype(int) + 1, CT_DIMS)
    axes = [
        ((np.arange(lo[a], hi[a]) - center[a] - shift[a]) / radii[a]) ** 2 for a in range(3)
    ]
    r = np.sqrt(axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :])
    return tuple(slice(lo[a], hi[a]) for a in range(3)), r


def _membership(center, radii, shift) -> tuple[tuple[slice, ...], np.ndarray]:
    box, r = _radius(center, radii, shift)
    return box, np.clip((1 + CT_RAMP - r) / (2 * CT_RAMP), 0.0, 1.0)


def _flip(data: np.ndarray, tag: int) -> np.ndarray:
    axes = tuple(a for a, bit in enumerate((4, 2, 1)) if tag & bit)
    return np.flip(data, axis=axes) if axes else data


def _ct_label(geo) -> tuple[np.ndarray, np.ndarray]:
    """Label map and the mask of voxels no per-flip shift can relabel."""
    label = np.zeros(CT_DIMS, dtype=np.uint8)
    unsure = np.zeros(CT_DIMS, dtype=bool)
    # a shift of CT_SHIFT voxels moves r by at most CT_SHIFT / min(radii)
    for c in (*ORGANS, TUMOR):
        center, radii = geo[c]
        box, r = _radius(center, radii)
        label[box][r < 1] = c
        margin = CT_SHIFT / radii.min() + 1e-6
        unsure[box] |= np.abs(r - 1) <= margin
    return label, ~unsure


def _ct_maps(out: _Writer, case_id: str, geo, channels, phase: str, rng) -> None:
    """One gzipped map per flip and channel, in the flipped frame the
    segmenter sees; each flip's maps are shifted by its own sub-voxel offset."""
    for tag in range(8):
        shift = rng.uniform(-CT_SHIFT, CT_SHIFT, size=3) / np.sqrt(3)
        # x-fastest like the files, so writing a flipped plane is a plain copy
        background = np.ones(CT_DIMS, dtype=np.float32, order="F")
        planes = {}
        for c in channels:
            plane = np.zeros(CT_DIMS, dtype=np.float32, order="F")
            box, m = _membership(*geo[c], shift)
            plane[box] = m
            background -= plane
            planes[c] = plane
        planes[0] = np.clip(background, 0.0, 1.0)
        for c, plane in planes.items():
            rel = f"maps/{phase}/{case_id}__tta{tag}_prob_{c}.nii.gz"
            out.volume(_flip(plane, tag), CT_SPACING, rel)


def make_ct(root: Path, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    out = _Writer(root)
    records, expected, fixed = [], {}, {}
    xs, ys = np.ogrid[: CT_DIMS[0], : CT_DIMS[1]]
    half = CT_DIMS[0] / 2
    body = ((xs - half) ** 2 + (ys - half) ** 2)[..., None] <= (CT_BODY * half) ** 2
    hu_of_class = np.array([CT_HU[c] for c in range(TUMOR + 1)])
    for case_id, status in CT_CASES.items():
        geo = _ct_geometry(rng)
        label, sure = _ct_label(geo)
        hu = hu_of_class[label]
        noise = rng.normal(0.0, 15.0, size=CT_DIMS)
        image = np.where(body | (label > 0), hu + noise, -1024.0).round().astype(np.int16)
        img = out.volume(image, CT_SPACING, f"images/{case_id}.nii.gz")
        classes = _status_classes(status, ORGANS)
        lab = None
        if classes:
            lab = out.volume(np.where(np.isin(label, classes), label, 0).astype(np.uint8),
                             CT_SPACING, f"labels/{case_id}.nii.gz")
        records.append(_record(case_id, img, status, lab))
        # each external source is wrong on its own voxels, so any two of
        # the three votes agree on the truth wherever the own labels are right
        u = rng.random(CT_DIMS)
        for name, wrong in zip(CT_EXTERNAL, (u < CT_EXTERNAL_NOISE, u > 1 - CT_EXTERNAL_NOISE)):
            noisy = np.where(wrong, rng.integers(0, TUMOR + 1, size=CT_DIMS), label).astype(np.uint8)
            out.volume(noisy, CT_SPACING, f"{name}/{case_id}.nii.gz")
        if TUMOR not in classes:
            _ct_maps(out, case_id, geo, (TUMOR,), "tumor", rng)
        if not set(ORGANS) & set(classes):
            _ct_maps(out, case_id, geo, ORGANS, "organ", rng)
        expected[case_id] = label
        fixed[case_id] = np.ones(CT_DIMS, dtype=bool) if status == "full" else sure
    config = {
        "rounds_tumor": 1,
        "rounds_organ": 1,
        "tta": True,
        "external_label_dirs": {name: str(root / name) for name in CT_EXTERNAL},
        "fusion": {"source_priority": ["own", *CT_EXTERNAL]},
        "segmenter": replay_segmenter(root / "maps"),
    }
    return Workload(
        manifest=out.json(records, "manifest.json"),
        config=out.json(config, "config.json"),
        expected=expected,
        fixed=fixed,
        digests=CT_SEED0_DIGESTS if seed == 0 else {},
        input_bytes=out.bytes,
    )


GENERATORS = {"cohort": make_cohort, "ct": make_ct}
