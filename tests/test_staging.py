"""A round stages its predict inputs on one worker thread while its
segmenter trains, and every way that overlap can end leaves the run as a
sequential one would."""
import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from voxseg import cli, pipeline
from voxseg.errors import SegmenterError
from voxseg.fixture import make_fixture
from voxseg.nifti import load_nifti
from voxseg.pipeline import PipelineState, _student_records, run_phase
from voxseg.tta import enumerate_flips

from test_bench_contract import _traced
from test_monitor import _running
from test_pipeline import _load

EXE = sys.executable
TTA_FLIPS = len(enumerate_flips())

# a train command's script starts here: argv holds its three directories,
# and ``inputs`` is the round's predict_images/ beside {train_dir}
PREAMBLE = """\
import os, signal, sys, time
from pathlib import Path
train_dir, label_dir, model_dir = sys.argv[1:4]
inputs = Path(train_dir).parent / "predict_images"

def wait_until(ready, seconds):
    deadline = time.monotonic() + seconds
    while not ready():
        if time.monotonic() > deadline:
            sys.exit(1)
        time.sleep(0.005)

def mock_train():
    from voxseg import mock_segmenter
    mock_segmenter.train(train_dir, label_dir, model_dir)

def flips():
    return list(inputs.glob("*__tta*.nii.gz")) if inputs.is_dir() else []
"""


def _train_cmd(tmp_path, body: str) -> str:
    script = tmp_path / "train.py"
    script.write_text(PREAMBLE + body)
    return f"{EXE} {script} {{train_dir}} {{label_dir}} {{model_dir}}"


def _with_train(config, train_cmd):
    return replace(config, segmenter=replace(config.segmenter, train_cmd=train_cmd))


def test_predict_inputs_are_staged_while_the_train_runs(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    students = [r.case_id for r in _student_records(manifest, config, "tumor")]
    want = [f"{c}__tta{s.tag}.nii.gz" for c in students for s in enumerate_flips()]
    config = _with_train(config, _train_cmd(tmp_path, (
        f"wait_until(lambda: all((inputs / name).exists() for name in {want!r}), 5)\n"
        "mock_train()\n"
    )))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config, "tumor")
    record = state.history[-1]
    assert (record["fused"], record["failed"]) == (len(students), [])


def test_no_two_traced_calls_overlap(fixture_dataset, tmp_path, monkeypatch):
    # the benchmark's tracer keeps one stack of open spans, which is exact
    # only while a call on one thread never overlaps a call on another
    calls = []

    def recorded(fn, name):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, time.perf_counter(), threading.get_ident(), name))
        return call

    for module, attr, span in _traced():
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, recorded(getattr(mod, attr), span))
    monkeypatch.setattr(PipelineState, "persist", recorded(PipelineState.persist, "state.write"))
    manifest, config = _load(fixture_dataset)
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config, "tumor")

    assert len({thread for _, _, thread, _ in calls}) == 2  # the flips were staged on a worker
    calls.sort()
    for i, (start, end, thread, name) in enumerate(calls):
        for later_start, later_end, later_thread, later in calls[i + 1:]:
            if later_start >= end:
                break
            # only a call nested inside another on the same thread may overlap it
            assert later_thread == thread and later_end <= end, f"{later} overlaps {name}"


def _run_argv(manifest, config, work, launcher=("-m", "voxseg")):
    return [EXE, *launcher, "run", "--manifest", str(manifest), "--config", str(config),
            "--work", str(work)]


# `voxseg run` with each staged save delayed, so that a kill can land
# between two flips of the fixture's small images
SLOW_STAGING_RUN = """\
import sys, threading, time
from voxseg import cli, pipeline
real_save = pipeline.save_nifti

def slow_staging_save(*args, **kwargs):
    if threading.current_thread() is not threading.main_thread():
        time.sleep(0.05)
    return real_save(*args, **kwargs)

pipeline.save_nifti = slow_staging_save
sys.exit(cli.main(sys.argv[1:]))
"""


def test_kill_while_staging_resumes_to_a_clean_runs_outputs(tmp_path):
    data = make_fixture(tmp_path / "data", rounds=(1, 0))
    marker = tmp_path / "killed_once"
    # the first train kills `voxseg run` once 3 flips are staged; later ones train
    body = (
        f"marker = Path({str(marker)!r})\n"
        "if marker.exists():\n"
        "    mock_train()\n"
        "    sys.exit(0)\n"
        "marker.touch()\n"
        "wait_until(lambda: len(flips()) >= 3, 30)\n"
        "os.kill(os.getppid(), signal.SIGKILL)\n"
    )
    config = json.loads(data["config"].read_text())
    config["segmenter"]["train_cmd"] = _train_cmd(tmp_path, body)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    launcher = tmp_path / "slow_staging_run.py"
    launcher.write_text(SLOW_STAGING_RUN)
    argv = _run_argv(data["manifest"], config_path, tmp_path / "work", (str(launcher),))

    killed = subprocess.run(argv, capture_output=True, text=True)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    work = tmp_path / "work"
    ondisk = json.loads((work / "state.json").read_text())
    assert (ondisk["stage"]["trained"], ondisk["persist_count"]) == (False, 1)
    staged = list((work / "rounds" / "tumor_r0" / "predict_images").glob("*.nii.gz"))
    assert 3 <= len(staged) < 4 * TTA_FLIPS  # killed in the middle of staging

    resumed = subprocess.run(argv, capture_output=True, text=True)
    assert resumed.returncode == 0, resumed.stderr
    clean = tmp_path / "clean"
    done = subprocess.run(_run_argv(data["manifest"], config_path, clean), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

    report = json.loads((work / "report.json").read_text())
    assert report["history"] == json.loads((clean / "report.json").read_text())["history"]
    assert sorted(report["final_labels"]) == [f"case_{s}" for s in "abcdef"]
    for cid in report["final_labels"]:
        got = load_nifti(work / "final" / f"{cid}.nii.gz").data
        assert np.array_equal(got, load_nifti(clean / "final" / f"{cid}.nii.gz").data), cid


def test_failed_train_stops_the_staging_after_the_student_in_flight(
    fixture_dataset, tmp_path, monkeypatch
):
    real_save = pipeline.save_nifti

    def slow_staging_save(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.1)  # a student takes 0.8 s to stage, the whole round 3.2 s
        return real_save(*args, **kwargs)

    monkeypatch.setattr(pipeline, "save_nifti", slow_staging_save)
    manifest, config = _load(fixture_dataset)
    config = _with_train(config, _train_cmd(tmp_path, "wait_until(flips, 10)\nsys.exit(1)\n"))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    before = set(threading.enumerate())
    with pytest.raises(SegmenterError, match="train command exited with 1"):
        run_phase(state, manifest, config, "tumor")
    assert set(threading.enumerate()) <= before
    ondisk = PipelineState.load(tmp_path / "state.json")
    assert not ondisk.stage["trained"] and ondisk.persist_count == 1
    staged = os.listdir(tmp_path / "rounds" / "tumor_r0" / "predict_images")
    n_students = len(_student_records(manifest, config, "tumor"))
    # whole students only, and not every student
    assert staged and len(staged) % TTA_FLIPS == 0 and len(staged) < n_students * TTA_FLIPS


def test_unreadable_student_fails_the_run_after_the_train_is_saved(tmp_path, capsys):
    data = make_fixture(tmp_path / "data", rounds=(1, 0))
    image = data["root"] / "images" / "case_d.nii.gz"
    image.write_bytes(image.read_bytes()[: image.stat().st_size // 2])
    work = tmp_path / "work"
    argv = ["run", "--manifest", str(data["manifest"]), "--config", str(data["config"]), "--work", str(work)]
    assert cli.main(argv) == 1
    assert "case_d.nii.gz: truncated or corrupt gzip stream" in capsys.readouterr().err
    ondisk = json.loads((work / "state.json").read_text())
    assert ondisk["stage"] == {"trained": True, "predicted": False}
    assert ondisk["persist_count"] == 2


def test_interrupt_during_the_train_ends_the_run_and_its_train(fixture_dataset, tmp_path):
    pid_file = tmp_path / "train.pid"
    body = f"Path({str(pid_file)!r}).write_text(str(os.getpid()))\ntime.sleep(60)\n"
    config = json.loads(fixture_dataset["config"].read_text())
    config["segmenter"]["train_cmd"] = _train_cmd(tmp_path, body)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    # SIGINT goes to `voxseg run` alone, as from `kill -INT`; the default
    # handler is restored in case this test runs in the background
    run = subprocess.Popen(
        _run_argv(fixture_dataset["manifest"], config_path, tmp_path / "work"),
        stderr=subprocess.DEVNULL,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline, "the train never started"
            time.sleep(0.05)
        train_pid = int(pid_file.read_text())
        run.send_signal(signal.SIGINT)
        assert run.wait(timeout=5) != 0
        deadline = time.monotonic() + 1.0
        while _running(train_pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(train_pid)
    finally:
        run.kill()
        run.wait()
        if pid_file.exists() and pid_file.read_text() and _running(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
