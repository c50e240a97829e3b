"""Two seeded kill points of ``scripts/resume_sweep.py``, which kills the
fixture run at a state write and resumes it in the same work directory.
The script itself tries every state write of the run."""
import importlib.util
import json
from pathlib import Path

import numpy as np

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
    assert _script().sweep(completed_run["dataset"], clean, kills, tmp_path) == []
    assert capsys.readouterr().out.splitlines() == [f"kill at state write {k}: ok" for k in kills]
