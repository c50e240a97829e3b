#!/usr/bin/env python3
"""Kill the fixture run at each of its state and file writes, resume it, and compare with a clean run.

There are five kinds of kill point, each numbered from 1 in run order:

- ``state write`` k: the run's k-th state write (a snapshot or a journal
  line) raises ``Killed``, a ``BaseException``, from
  ``PipelineState._crash_hook``;
- ``file write`` k: ``Killed`` is raised right after the run's k-th
  ``save_nifti`` into ``pseudo_tumor/``, ``pseudo_organ/`` or ``final/``,
  before that case's journal line;
- ``staged write`` k: the same after the run's k-th ``save_nifti`` of a
  predict input into a round's ``predict_images/``, while a segmenter
  command runs;
- ``truncated file write`` k and ``truncated staged write`` k: the same,
  with that file first cut to half its length, as a kill in the middle of
  the write would leave it.

A kill on the calling thread also kills a running segmenter command, as
it would be when the process is killed; the state writes of the tumor
phase's last fuse fall while the organ phase's first train runs.

The run is then resumed in the same work directory.  A kill point passes
when the resumed run's ``final/`` files hold the clean run's bytes and its
``report.json`` holds the clean run's ``history``.  Everything runs in this
process:

    PYTHONPATH=src python scripts/resume_sweep.py [--root R] [--kills K ...] [--file-kills K ...]

By default every state write, file write and staged write of the clean
run is a kill point, the file and staged writes once as written and once
truncated; with ``--kills`` or ``--file-kills``, only the points given.
Exits 1 when any kill point fails, after printing one line per kill point.
"""
import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from voxseg import pipeline
from voxseg.config import load_config
from voxseg.fixture import make_fixture
from voxseg.manifest import load_manifest
from voxseg.pipeline import run_pipeline
from voxseg.state import PipelineState

STATE, FILE, TRUNCATED = "state write", "file write", "truncated file write"
STAGED, TRUNCATED_STAGED = "staged write", "truncated staged write"
# the directories whose files a case's journal line vouches for
STORES = ("pseudo_tumor", "pseudo_organ", "final")
# each kind of file-write kill point: the directories whose saves it
# counts, and whether it cuts the file to half its length
FILE_KINDS = {
    FILE: (STORES, False),
    TRUNCATED: (STORES, True),
    STAGED: (("predict_images",), False),
    TRUNCATED_STAGED: (("predict_images",), True),
}


class Killed(BaseException):
    """Raised at the chosen kill point, where a kill would stop the run."""


@contextmanager
def killing(kind: str, k: int):
    """Within it, a run raises ``Killed`` at its ``k``-th kill point of
    ``kind`` (``k`` = 0: never); yields every path it saves, in order."""
    saved = []
    real_hook, real_save = PipelineState._crash_hook, pipeline.save_nifti
    dirs, truncate = FILE_KINDS.get(kind, ((), False))

    def hook(state):
        if kind == STATE and state.persist_count == k:
            raise Killed(kind, k)

    counted = 0

    def save(vol, path, *args, **kwargs):
        nonlocal counted
        real_save(vol, path, *args, **kwargs)
        saved.append(path)
        if Path(path).parent.name in dirs:
            counted += 1
            if counted == k:
                if truncate:
                    os.truncate(path, os.path.getsize(path) // 2)
                raise Killed(kind, k)

    PipelineState._crash_hook, pipeline.save_nifti = hook, save
    try:
        yield saved
    finally:
        PipelineState._crash_hook, pipeline.save_nifti = real_hook, real_save


def count_saves(saved: list, kind: str) -> int:
    """How many of the ``saved`` paths are kill points of ``kind``."""
    return sum(Path(p).parent.name in FILE_KINDS[kind][0] for p in saved)


def outputs(work: Path) -> tuple[dict, list]:
    """The bytes of each ``final/`` file by name, and ``report.json``'s history."""
    final = {p.name: p.read_bytes() for p in sorted((work / "final").iterdir())}
    return final, json.loads((work / "report.json").read_text())["history"]


def kill_and_resume(manifest, config, work: Path, kind: str, k: int) -> bool:
    """Run in ``work`` until its ``k``-th kill point of ``kind``, then
    resume to the end; False when the run ends before that point."""
    try:
        with killing(kind, k):
            run_pipeline(manifest, config, work)
        return False
    except Killed:
        pass
    run_pipeline(manifest, config, work)
    return True


def sweep(dataset: dict, clean: Path, points, root: Path) -> list[tuple[str, int]]:
    """Kill at each ``(kind, k)`` of ``points`` in a work directory of its
    own under ``root``; returns the points that did not resume to
    ``clean``'s outputs."""
    manifest, config = load_manifest(dataset["manifest"]), load_config(dataset["config"])
    want = outputs(clean)
    failed = []
    for kind, k in points:
        work = root / f"{kind.replace(' ', '_')}_{k}"
        verdict = "never reached"
        if kill_and_resume(manifest, config, work, kind, k):
            verdict = "ok" if outputs(work) == want else "differs from the clean run"
        print(f"kill at {kind} {k}: {verdict}", flush=True)
        if verdict != "ok":
            failed.append((kind, k))
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=None,
                    help="directory for the dataset and the work dirs (default: a fresh temp dir)")
    ap.add_argument("--kills", type=int, nargs="+", default=[], metavar="K",
                    help="state writes to kill at")
    ap.add_argument("--file-kills", type=int, nargs="+", default=[], metavar="K",
                    help="file writes to kill after, once as written and once truncated")
    args = ap.parse_args()
    root = args.root or Path(tempfile.mkdtemp(prefix="voxseg_sweep_"))

    start = time.perf_counter()
    dataset = make_fixture(root / "data")
    clean = root / "clean"
    with killing(STATE, 0) as saved:
        run_pipeline(load_manifest(dataset["manifest"]), load_config(dataset["config"]), clean)
    writes = json.loads((clean / "state.json").read_text())["persist_count"]
    files, staged = count_saves(saved, FILE), count_saves(saved, STAGED)
    kills, file_kills, staged_kills = args.kills, args.file_kills, []
    if not (kills or file_kills):
        kills, file_kills, staged_kills = range(1, writes + 1), range(1, files + 1), range(1, staged + 1)
    points = ([(STATE, k) for k in kills] + [(kind, k) for k in file_kills for kind in (FILE, TRUNCATED)]
              + [(kind, k) for k in staged_kills for kind in (STAGED, TRUNCATED_STAGED)])
    failed = sweep(dataset, clean, points, root)
    print(f"{len(points) - len(failed)} of {len(points)} kill point(s) resumed to the clean run's "
          f"outputs ({writes} state writes, {files} file writes and {staged} staged writes in a clean run)")
    print(f"elapsed: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
