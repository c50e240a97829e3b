"""Seeded kill points of ``scripts/resume_sweep.py``, which kills the fixture
run at a state write or right after a file write or a staged predict input
and resumes it in the same work directory.  The script itself tries every
such point of the run."""
import importlib.util
import json
from pathlib import Path

import numpy as np

from voxseg.tta import enumerate_flips

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "resume_sweep.py"


def _script():
    spec = importlib.util.spec_from_file_location("resume_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_seeded_kill_points_resume_to_the_clean_runs_outputs(completed_run, tmp_path, capsys):
    clean = completed_run["work"]
    writes = json.loads((clean / "state.json").read_text())["persist_count"]
    kills = sorted(np.random.default_rng(4).choice(np.arange(1, writes + 1), size=2, replace=False).tolist())
    script = _script()
    points = [(script.STATE, k) for k in kills]
    assert script.sweep(completed_run["dataset"], clean, points, tmp_path) == []
    assert capsys.readouterr().out.splitlines() == [f"kill at state write {k}: ok" for k in kills]


def test_seeded_kill_after_a_file_write_resumes_to_the_clean_runs_outputs(
    completed_run, tmp_path, capsys
):
    # each fused case is saved once, into pseudo_<phase>/ or final/
    files = sum(h["fused"] for h in completed_run["report"]["history"])
    kept, truncated = np.random.default_rng(5).choice(np.arange(1, files + 1), size=2, replace=False).tolist()
    script = _script()
    points = [(script.FILE, kept), (script.TRUNCATED, truncated)]
    assert script.sweep(completed_run["dataset"], completed_run["work"], points, tmp_path) == []
    assert capsys.readouterr().out.splitlines() == [
        f"kill at file write {kept}: ok", f"kill at truncated file write {truncated}: ok",
    ]


def test_seeded_kill_after_a_staged_write_resumes_to_the_clean_runs_outputs(
    completed_run, tmp_path, capsys
):
    # each round stages its students' 8 flips while its train runs
    history = completed_run["report"]["history"]
    staged = sum(h["students"] for h in history if h["phase"] != "merge") * len(enumerate_flips())
    k = int(np.random.default_rng(6).integers(1, staged + 1))
    script = _script()
    points = [(script.TRUNCATED_STAGED, k)]
    assert script.sweep(completed_run["dataset"], completed_run["work"], points, tmp_path) == []
    assert capsys.readouterr().out.splitlines() == [f"kill at truncated staged write {k}: ok"]
