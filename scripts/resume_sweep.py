#!/usr/bin/env python3
"""Kill the fixture run at each of its state writes, resume it, and compare with a clean run.

For each kill point k, the run's k-th state write (a snapshot or a journal
line) raises ``Killed``, a ``BaseException``, from
``PipelineState._crash_hook``; the run is then resumed in the same work
directory.  A kill point passes when the resumed run's ``final/`` files hold
the clean run's bytes and its ``report.json`` holds the clean run's
``history``.  Everything runs in this process:

    PYTHONPATH=src python scripts/resume_sweep.py [--root R] [--kills K ...]

By default every state write of the clean run is a kill point.  Exits 1
when any kill point fails, after printing one line per kill point.
"""
import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from voxseg.config import load_config
from voxseg.fixture import make_fixture
from voxseg.manifest import load_manifest
from voxseg.pipeline import PipelineState, run_pipeline


class Killed(BaseException):
    """Raised at the chosen state write, where a kill would stop the run."""


def outputs(work: Path) -> tuple[dict, list]:
    """The bytes of each ``final/`` file by name, and ``report.json``'s history."""
    final = {p.name: p.read_bytes() for p in sorted((work / "final").iterdir())}
    return final, json.loads((work / "report.json").read_text())["history"]


def kill_and_resume(manifest, config, work: Path, k: int) -> bool:
    """Run in ``work`` until the ``k``-th state write, then resume to the
    end; False when the run ends before that write."""
    real_hook = PipelineState._crash_hook

    def hook(state):
        if state.persist_count == k:
            raise Killed(k)

    PipelineState._crash_hook = hook
    try:
        run_pipeline(manifest, config, work)
        return False
    except Killed:
        pass
    finally:
        PipelineState._crash_hook = real_hook
    run_pipeline(manifest, config, work)
    return True


def sweep(dataset: dict, clean: Path, kills, root: Path) -> list[int]:
    """Kill each of ``kills`` in a work directory of its own under ``root``;
    returns the kill points that did not resume to ``clean``'s outputs."""
    manifest, config = load_manifest(dataset["manifest"]), load_config(dataset["config"])
    want = outputs(clean)
    failed = []
    for k in kills:
        work = root / f"kill_{k}"
        verdict = "never reached"
        if kill_and_resume(manifest, config, work, k):
            verdict = "ok" if outputs(work) == want else "differs from the clean run"
        print(f"kill at state write {k}: {verdict}", flush=True)
        if verdict != "ok":
            failed.append(k)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=None,
                    help="directory for the dataset and the work dirs (default: a fresh temp dir)")
    ap.add_argument("--kills", type=int, nargs="+", default=None, metavar="K",
                    help="state writes to kill at (default: every state write of the clean run)")
    args = ap.parse_args()
    root = args.root or Path(tempfile.mkdtemp(prefix="voxseg_sweep_"))

    start = time.perf_counter()
    dataset = make_fixture(root / "data")
    clean = root / "clean"
    run_pipeline(load_manifest(dataset["manifest"]), load_config(dataset["config"]), clean)
    writes = json.loads((clean / "state.json").read_text())["persist_count"]
    kills = args.kills or range(1, writes + 1)
    failed = sweep(dataset, clean, kills, root)
    print(f"{len(kills) - len(failed)} of {len(kills)} kill point(s) resumed to the clean run's "
          f"outputs ({writes} state writes in a clean run)")
    print(f"elapsed: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
