"""Output checks: decoded final label arrays, never file digests."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from niftiio import load

DSC_TOL = 1e-9


def array_digest(labels: np.ndarray) -> str:
    """sha256 over shape and x-fastest voxel bytes of a decoded label map."""
    h = hashlib.sha256(repr(labels.shape).encode())
    h.update(np.ascontiguousarray(labels, dtype=np.uint8).tobytes(order="F"))
    return h.hexdigest()


def _final(work: Path, case_id: str) -> np.ndarray | None:
    try:
        return load(work / "final" / f"{case_id}.nii.gz")
    except (OSError, ValueError):
        return None


def failed_cases(wl, work: Path) -> list[str]:
    """Case ids whose final label is missing or differs from what is expected.

    A wrong held-out DSC trajectory fails every held-out case.
    """
    failed = []
    for cid, want in wl.expected.items():
        got = _final(work, cid)
        mask = wl.fixed.get(cid)
        if got is None or got.shape != want.shape:
            ok = False
        elif mask is None:
            ok = np.array_equal(got, want)
        else:
            ok = np.array_equal(got[mask], want[mask])
        if ok and cid in wl.digests:
            ok = array_digest(got) == wl.digests[cid]
        if not ok:
            failed.append(cid)
    if wl.dsc_trajectory is not None and not _dsc_matches(work, wl.dsc_trajectory):
        failed.extend(c for c in wl.held_out if c not in failed)
    return failed


def _dsc_matches(work: Path, want) -> bool:
    try:
        history = json.loads((work / "report.json").read_text())["history"]
    except (OSError, ValueError, KeyError):
        return False
    got = [h["eval"]["mean_dsc"] for h in history if "eval" in h]
    return len(got) == len(want) and all(abs(g - w) <= DSC_TOL for g, w in zip(got, want))
