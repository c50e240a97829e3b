#!/usr/bin/env python3
"""End-to-end demo: build the synthetic dataset and run the full self-training loop.

Equivalent to:

    python scripts/make_fixture.py DATA
    python -m voxseg run --manifest DATA/manifest.json --config DATA/config.json --work WORK

Standard output ends with a sha256 of each *decoded* final label array
(shape, then voxel bytes in x-fastest order), which does not depend on
gzip settings.  With one ``--root`` it is the same for two checkouts that
produce the same labels, so their outputs can be compared with ``diff``;
the elapsed time goes to standard error.
"""
import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from voxseg.config import load_config
from voxseg.fixture import make_fixture
from voxseg.manifest import load_manifest
from voxseg.nifti import load_nifti
from voxseg.pipeline import run_pipeline


def array_digest(path: Path) -> str:
    data = load_nifti(path).data
    h = hashlib.sha256(repr(data.shape).encode())
    h.update(data.tobytes(order="F"))
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        type=Path,
        default=None,
        help="directory for dataset + work dir (default: a fresh temp dir)",
    )
    args = ap.parse_args()
    root = args.root or Path(tempfile.mkdtemp(prefix="voxseg_demo_"))

    paths = make_fixture(root / "data")
    manifest = load_manifest(paths["manifest"])
    config = load_config(paths["config"])

    start = time.perf_counter()
    report = run_pipeline(manifest, config, root / "work")
    elapsed = time.perf_counter() - start

    for rec in report["history"]:
        where = rec["phase"] if rec.get("round") is None else f"{rec['phase']} round {rec['round']}"
        if "eval" in rec:
            print(f"{where}: fused {rec['fused']} case(s), held-out mean DSC {rec['eval']['mean_dsc']:.4f}")
        else:
            print(f"{where}: merged {len(report['final_labels'])} case(s)")
    print(f"final labels in {root / 'work' / 'final'}")
    print(f"report written to {root / 'work' / 'report.json'}")
    print(f"elapsed: {elapsed:.1f} s", file=sys.stderr)
    final = root / "work" / "final"
    decoded = {cid: array_digest(final / f"{cid}.nii.gz") for cid in sorted(report["final_labels"])}
    print(json.dumps({"work": str(root / "work"), "cases": sorted(report["final_labels"]),
                      "decoded_sha256": decoded}, indent=2))


if __name__ == "__main__":
    main()
