import json
import os
import re
import shlex
import shutil
import sys
import textwrap
from pathlib import Path
import weakref
from dataclasses import replace

import numpy as np
import pytest

from voxseg.config import PipelineConfig, SegmenterContract, load_config
from voxseg.errors import PipelineError, SegmenterError, VoxsegError
from voxseg.fixture import CASE_SHIFTS, FIXTURE_SPACING, blob_slices, make_label
from voxseg.manifest import load_manifest
from voxseg.nifti import load_nifti, save_nifti
from voxseg import pipeline
from voxseg.pipeline import (
    FUSED,
    _restrict,
    _student_records,
    _teacher_records,
    index_prob_maps,
    reduce_prob_maps,
    run_merge,
    run_phase,
    run_pipeline,
)
from voxseg.state import CRASH_ENV, DONE, MERGE, PHASE_CLASSES, PipelineState
from voxseg.tta import apply_flip, enumerate_flips
from voxseg.volume import ORGAN_CLASSES, Spacing, Volume

EXE = sys.executable


def _load(paths):
    return load_manifest(paths["manifest"]), load_config(paths["config"])


def test_phase_classes():
    assert PHASE_CLASSES["tumor"] == {14}
    assert PHASE_CLASSES["organ"] == set(ORGAN_CLASSES)


def test_restrict():
    data = np.array([[[0, 1, 3, 14]]], dtype=np.uint8)
    vol = Volume(data, Spacing(1, 1, 1))
    out = _restrict(vol, {14})
    assert out.data.ravel().tolist() == [0, 0, 0, 14]
    out2 = _restrict(vol, set(ORGAN_CLASSES))
    assert out2.data.ravel().tolist() == [0, 1, 3, 0]


def test_teacher_student_partition(fixture_dataset):
    manifest, config = _load(fixture_dataset)
    t_tumor = [r.case_id for r in _teacher_records(manifest, config, "tumor")]
    s_tumor = [r.case_id for r in _student_records(manifest, config, "tumor")]
    assert t_tumor == ["case_a", "case_b"]
    assert s_tumor == ["case_c", "case_d", "case_e", "case_f"]
    t_organ = [r.case_id for r in _teacher_records(manifest, config, "organ")]
    s_organ = [r.case_id for r in _student_records(manifest, config, "organ")]
    assert t_organ == ["case_a", "case_c"]
    assert s_organ == ["case_b", "case_d", "case_e", "case_f"]
    # held-out cases never teach, even when fully annotated
    open_config = load_config(fixture_dataset["config"], overrides=["eval_cases=[]"])
    assert "case_f" in [r.case_id for r in _teacher_records(manifest, open_config, "tumor")]


def test_state_roundtrip(tmp_path):
    config = PipelineConfig()
    state = PipelineState.fresh(tmp_path / "state.json", config)
    assert (state.phase, state.round, state.step) == ("tumor", 0, "train")
    back = PipelineState.load(tmp_path / "state.json")
    assert back == state
    assert back.config == json.loads(json.dumps(config.to_dict()))


@pytest.mark.parametrize("edit, named", [
    (lambda data: data.pop("step"), r"lacks keys \['step'\], has unknown keys \[\]$"),
    (lambda data: data.update(workers=2), r"lacks keys \[\], has unknown keys \['workers'\]$"),
    # a snapshot written before a round's progress was one step name
    (lambda data: data.update(stage={"trained": True, "predicted": False}) or data.pop("step"),
     r"lacks keys \['step'\], has unknown keys \['stage'\]$"),
], ids=["missing", "unknown", "old_stage"])
def test_state_load_names_a_missing_or_unknown_key(tmp_path, edit, named):
    path = tmp_path / "state.json"
    PipelineState.fresh(path, PipelineConfig())
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(PipelineError, match=named):
        PipelineState.load(path)


@pytest.mark.parametrize("entry", pipeline.RUN_ENTRIES)
def test_open_state_refuses_an_earlier_runs_entry_without_state(fixture_dataset, tmp_path, entry):
    manifest, config = _load(fixture_dataset)
    (tmp_path / entry).mkdir()
    with pytest.raises(PipelineError, match=rf"holds {re.escape(entry)} but no state.json"):
        pipeline.open_state(manifest, config, tmp_path)
    assert os.listdir(tmp_path) == [entry]


def test_state_version_and_missing(tmp_path):
    with pytest.raises(PipelineError, match="cannot read state"):
        PipelineState.load(tmp_path / "absent.json")
    path = tmp_path / "state.json"
    PipelineState.fresh(path, PipelineConfig())
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(PipelineError, match="state version 99$"):
        PipelineState.load(path)
    path.write_text("[]")
    with pytest.raises(PipelineError, match="state version None$"):
        PipelineState.load(path)


def test_state_mutators_persist(tmp_path):
    state = PipelineState.fresh(tmp_path / "state.json", PipelineConfig())
    state.advance("predict")
    state.advance("fuse")
    state.set_case("x", {"status": FUSED, "digest": "d"})
    ondisk = json.loads((tmp_path / "state.json").read_text())
    assert ondisk["step"] == "fuse"
    resumed = PipelineState.load(tmp_path / "state.json")
    assert resumed.cases == {"x": {"status": FUSED, "digest": "d"}}
    assert resumed.persist_count == 4
    state.end_round({"phase": "tumor", "round": 0}, PipelineConfig())
    assert state.round == 1 and state.cases == {} and state.step == "train"


def test_fresh_state_names_the_first_configured_round(tmp_path):
    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig(rounds_tumor=0))
    assert (state.phase, state.round) == ("organ", 0)
    state = PipelineState.fresh(path, PipelineConfig(rounds_tumor=0, rounds_organ=0))
    assert state.phase == MERGE


def test_end_round_names_the_next_step(tmp_path):
    config = PipelineConfig(rounds_tumor=1, rounds_organ=1)
    state = PipelineState.fresh(tmp_path / "state.json", config)
    assert (state.phase, state.round) == ("tumor", 0)
    state.end_round({"phase": "tumor", "round": 0}, config)
    assert (state.phase, state.round) == ("organ", 0)
    state.end_round({"phase": "organ", "round": 0}, config)
    assert state.phase == MERGE
    # each step is on disk as soon as the round ends
    assert json.loads((tmp_path / "state.json").read_text())["phase"] == MERGE


def _journal_lines(state):
    return [json.loads(line) for line in state.journal.read_text().splitlines()]


def test_journal_replays_cases_after_snapshot(tmp_path):
    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig())
    state.advance("predict")
    snapshot = path.read_text()
    state.set_case("x", {"status": FUSED, "digest": "d"})
    assert path.read_text() == snapshot  # an append leaves the snapshot alone
    assert _journal_lines(state) == [
        {"n": 3, "case": "x", "entry": {"status": FUSED, "digest": "d"}}
    ]
    back = PipelineState.load(path)
    assert back == state
    assert back.persist_count == 3


def test_journal_ignores_torn_last_line(tmp_path):
    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig())
    state.advance("predict")
    state.set_case("x", {"status": FUSED, "digest": "d"})
    for torn in (b'{"n": 4, "case": "y", "ent', b'{"n": 4, "case": "y", "entry": {}}'):
        good = state.journal.read_bytes()
        state.journal.write_bytes(good + torn)  # undecodable, then unterminated
        back = PipelineState.load(path)
        assert back == state
        assert state.journal.read_bytes() == good  # the torn tail is cut off
    # appends after the cut start on their own line and replay too
    back.set_case("y", {"status": "failed", "error": "e"})
    again = PipelineState.load(path)
    assert again.cases["y"] == {"status": "failed", "error": "e"}
    assert again.persist_count == 4


def test_journal_ignores_lines_the_snapshot_covers(tmp_path):
    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig())
    state.advance("predict")
    state.set_case("x", {"status": FUSED, "digest": "d"})
    stale = state.journal.read_bytes()
    state.advance("fuse")
    assert state.journal.read_bytes() == b""  # the snapshot emptied it
    # a kill between the snapshot's replace and the truncation leaves old lines
    state.journal.write_bytes(stale + b'{"n": 4, "case": "y", "entry": {"status": "bogus"}}\n')
    back = PipelineState.load(path)
    assert back == state
    assert back.cases == {"x": {"status": FUSED, "digest": "d"}}


def test_journal_count_continues_across_load(tmp_path):
    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig())
    state.advance("predict")
    state.set_case("x", {"status": FUSED, "digest": "d"})
    back = PipelineState.load(path)
    back.set_case("y", {"status": FUSED, "digest": "e"})
    assert [line["n"] for line in _journal_lines(back)] == [3, 4]
    back.advance("fuse")
    assert back.persist_count == 5
    assert json.loads(path.read_text())["persist_count"] == 5
    assert PipelineState.load(path) == back


def test_crash_hook_fires_on_journal_append(tmp_path, monkeypatch):
    class Killed(Exception):
        pass

    def fake_exit(code):
        raise Killed(code)

    path = tmp_path / "state.json"
    state = PipelineState.fresh(path, PipelineConfig())
    state.advance("predict")
    monkeypatch.setenv(CRASH_ENV, "3")
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Killed):
        state.set_case("x", {"status": FUSED, "digest": "d"})
    # the line the hook counted is on disk before the exit
    assert PipelineState.load(path).cases["x"]["status"] == FUSED


def _save_prob(path, value):
    save_nifti(Volume(np.full((2, 2, 2), value, dtype=np.float32), Spacing(1, 1, 1)), path)


def test_prob_map_index_keeps_prefix_ids_apart(tmp_path):
    # class 14 wins a base exactly when its value is above 0.5
    values = {"c1": 0.25, "c10": 0.75, "c1__tta000": 0.3, "c10__tta000": 0.6}
    for base, value in values.items():
        for c in (0, 14):
            _save_prob(tmp_path / f"{base}_prob_{c}.nii.gz", value if c else 1 - value)
    index = index_prob_maps(tmp_path)
    assert sorted(index) == ["c1", "c10", "c10__tta000", "c1__tta000"]
    assert index["c1"] == {0: tmp_path / "c1_prob_0.nii.gz", 14: tmp_path / "c1_prob_14.nii.gz"}
    for base, value in values.items():
        labels = reduce_prob_maps(index, tmp_path, base, use_tta=False)
        assert (labels.data == (14 if value > 0.5 else 0)).all(), base


def test_prob_map_index_prefers_gz_and_skips_strays(tmp_path):
    _save_prob(tmp_path / "c1_prob_0.nii", 0.9)
    _save_prob(tmp_path / "c1_prob_0.nii.gz", 0.2)
    _save_prob(tmp_path / "c1_prob_3.nii", 0.8)
    for stray in ("c1_prob_3.nii.gz.tmp4242", "c1_prob_5.nii.tmp7", "c1.nii.gz", "c1_prob_x.nii",
                  "notes.txt", "c1_prob_7.nifti"):
        (tmp_path / stray).write_bytes(b"junk")
    index = index_prob_maps(tmp_path)
    assert index == {"c1": {0: tmp_path / "c1_prob_0.nii.gz", 3: tmp_path / "c1_prob_3.nii"}}
    # 0.2 + 0.8 sums to 1; the .nii background (0.9) would break the contract
    assert (reduce_prob_maps(index, tmp_path, "c1", use_tta=False).data == 3).all()


def test_prob_map_index_missing_case_and_dir(tmp_path):
    assert index_prob_maps(tmp_path / "absent") == {}
    with pytest.raises(VoxsegError) as err:
        reduce_prob_maps({}, tmp_path, "ghost", use_tta=False)
    assert str(err.value) == f"segmenter wrote no probability maps for 'ghost' in {tmp_path}"


def test_prob_map_contract_violation_fails_that_case_alone(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    # the mock segmenter, then one flip of case_d halved in one class
    script = tmp_path / "predict.py"
    script.write_text(
        "import sys\n"
        "from voxseg import mock_segmenter, nifti\n"
        "model, inp, out = sys.argv[1:]\n"
        "mock_segmenter.predict(model, inp, out)\n"
        "path = f'{out}/case_d__tta3_prob_14.nii.gz'\n"
        "vol = nifti.load_nifti(path)\n"
        "nifti.save_nifti(vol.with_data(vol.data * 0.5), path)\n"
    )
    config = replace(config, segmenter=SegmenterContract(
        train_cmd=config.segmenter.train_cmd,
        predict_cmd=f"{EXE} {script} {{model_dir}} {{input_dir}} {{output_dir}}",
        output_mode="probabilities",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config)
    record = state.history[-1]
    assert record["failed"] == ["case_d"]
    assert record["fused"] == 3
    assert list(record["errors"]) == ["case_d"]
    assert "probability maps for 'case_d' sum to" in record["errors"]["case_d"]


def test_truncated_prob_map_fails_that_case_alone(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    # the mock segmenter, then one flip of case_e cut to half its length
    script = tmp_path / "predict.py"
    script.write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "from voxseg import mock_segmenter\n"
        "model, inp, out = sys.argv[1:]\n"
        "mock_segmenter.predict(model, inp, out)\n"
        "path = Path(out) / 'case_e__tta5_prob_0.nii.gz'\n"
        "path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])\n"
    )
    config = replace(config, segmenter=SegmenterContract(
        train_cmd=config.segmenter.train_cmd,
        predict_cmd=f"{EXE} {script} {{model_dir}} {{input_dir}} {{output_dir}}",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config)
    record = state.history[-1]
    assert record["failed"] == ["case_e"]
    assert record["fused"] == 3
    assert "case_e__tta5_prob_0.nii.gz: truncated or corrupt gzip stream" in record["errors"]["case_e"]


def test_missing_predict_dir_fails_cases_but_round_continues(fixture_dataset, tmp_path, caplog):
    manifest, config = _load(fixture_dataset)
    # exits 0 after deleting its output directory
    config = replace(config, segmenter=SegmenterContract(
        train_cmd=f"{EXE} -c pass",
        predict_cmd=f'{EXE} -c "import shutil, sys; shutil.rmtree(sys.argv[1])" {{output_dir}}',
        output_mode="probabilities",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config)
    assert not (tmp_path / "rounds" / "tumor_r0" / "predict_raw").exists()
    assert state.round == 1
    assert state.history[-1]["failed"] == ["case_c", "case_d", "case_e", "case_f"]
    assert caplog.text.count("segmenter wrote no probability maps") == 4


def test_predict_raw_listed_once_per_round(fixture_dataset, tmp_path, monkeypatch):
    manifest, _ = _load(fixture_dataset)
    config = load_config(fixture_dataset["config"])
    listed = []
    real_listdir = os.listdir

    def counting_listdir(path="."):
        if os.path.basename(path) == "predict_raw":
            listed.append(os.path.basename(os.path.dirname(path)))
        return real_listdir(path)

    monkeypatch.setattr(os, "listdir", counting_listdir)
    run_pipeline(manifest, config, tmp_path / "work")
    assert sorted(listed) == ["organ_r0", "organ_r1", "tumor_r0", "tumor_r1"]


def test_tta_reduction_loads_one_channel_at_a_time_class_major(
    fixture_dataset, tmp_path, monkeypatch
):
    manifest, config = _load(fixture_dataset)
    loaded = []
    real_load = pipeline.load_nifti

    def tracking_load(path):
        vol = real_load(path)
        if "_prob_" in path.name:
            # every channel loaded before this one must already be freed
            assert all(ref() is None for _, ref in loaded), path.name
            loaded.append((path.name, weakref.ref(vol.data)))
        return vol

    monkeypatch.setattr(pipeline, "load_nifti", tracking_load)
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config)
    assert state.history[-1]["failed"] == []
    # all flips of class 0, then all flips of class 14
    assert [name for name, _ in loaded[:16]] == [
        f"case_c__tta{k}_prob_{c}.nii.gz" for c in (0, 14) for k in range(8)
    ]
    assert len(loaded) == 16 * len(_student_records(manifest, config, "tumor"))


def test_run_phase_guards(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    state = PipelineState.fresh(tmp_path / "state.json", config)
    with pytest.raises(PipelineError, match="no segmenter contract"):
        run_phase(state, manifest, replace(config, segmenter=None))
    # the state names the step that runs next, and a round is not it
    for step in (MERGE, DONE):
        state.phase = step
        with pytest.raises(PipelineError, match=rf"no round is left: the run's next step is '{step}'"):
            run_phase(state, manifest, config)
    assert not (tmp_path / "rounds").exists()


def test_run_phase_requires_teachers(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    # holding out every tumor-annotated case leaves nobody to teach
    config = load_config(
        fixture_dataset["config"],
        overrides=['eval_cases=["case_a","case_b","case_f"]'],
    )
    state = PipelineState.fresh(tmp_path / "state.json", config)
    with pytest.raises(PipelineError, match="no teacher cases"):
        run_phase(state, manifest, config)
    # nothing was staged or run
    assert not (tmp_path / "rounds").exists()


def test_nonzero_exit_aborts_round_with_state_intact(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    config = replace(config, segmenter=SegmenterContract(
        train_cmd=f'{EXE} -c "raise SystemExit(3)"',
        predict_cmd=f"{EXE} -c pass",
        output_mode="labels",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    with pytest.raises(SegmenterError, match="exited with 3"):
        run_phase(state, manifest, config)
    ondisk = PipelineState.load(tmp_path / "state.json")
    assert ondisk.phase == "tumor" and ondisk.round == 0
    assert ondisk.step == "train" and ondisk.cases == {}
    log_text = (tmp_path / "rounds" / "tumor_r0" / "logs" / "train.log").read_text()
    assert "SystemExit" in log_text or "$ " in log_text


EXIT_LINE = re.compile(r"# voxseg: exit (-?\d+) after \d+\.\d\d s, peak RSS \d+\.\d MB \(launched process only\)")


def test_segmenter_logs_end_with_the_exit_line(completed_run, tmp_path):
    for log_path in sorted((completed_run["work"] / "rounds").glob("*/logs/*.log")):
        last = log_path.read_text().splitlines()[-1]
        assert EXIT_LINE.fullmatch(last).group(1) == "0", log_path
    log_path = tmp_path / "train.log"
    with pytest.raises(SegmenterError, match="exited with 3"):
        pipeline._run_command(f'{EXE} -c "raise SystemExit(3)"', {}, log_path, "train")
    assert EXIT_LINE.fullmatch(log_path.read_text().splitlines()[-1]).group(1) == "3"


def test_quoted_placeholders_get_the_exact_path(tmp_path):
    # quotes around or glued to a placeholder must not split a path holding a space
    model = tmp_path / "a b" / "model"
    template = (f"{EXE} -c 'import sys; print(repr(sys.argv[1:]))' "
                "{model_dir} '{model_dir}' \"{model_dir}\" \"{model_dir}/ckpt\" --out='{model_dir}'")
    want = [str(model)] * 3 + [f"{model}/ckpt", f"--out={model}"]
    log_path = tmp_path / "train.log"
    pipeline._run_command(template, {"model_dir": model}, log_path, "train")
    lines = log_path.read_text().splitlines()
    assert lines[1] == repr(want)
    # the logged command line splits back into the argv that ran
    assert shlex.split(lines[0].removeprefix("$ "))[3:] == want


def test_unlaunchable_command_raises(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    config = replace(config, segmenter=SegmenterContract(
        train_cmd="/nonexistent/segmenter-binary",
        predict_cmd=f"{EXE} -c pass",
        output_mode="labels",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    with pytest.raises(SegmenterError, match="cannot launch"):
        run_phase(state, manifest, config)


def test_missing_outputs_fail_cases_but_round_continues(fixture_dataset, tmp_path):
    manifest, config = _load(fixture_dataset)
    # exits 0 without writing anything: every student must fail cleanly
    config = replace(config, segmenter=SegmenterContract(
        train_cmd=f"{EXE} -c pass",
        predict_cmd=f"{EXE} -c pass",
        output_mode="labels",
    ))
    state = PipelineState.fresh(tmp_path / "state.json", config)
    run_phase(state, manifest, config)
    assert state.round == 1  # the round completed
    record = state.history[-1]
    assert record["fused"] == 0
    assert record["failed"] == ["case_c", "case_d", "case_e", "case_f"]
    assert record["eval"]["mean_dsc"] == 0.0
    assert json.loads((tmp_path / "state.json").read_text())["cases"] == {}


def test_full_run_report_shape(completed_run):
    report = completed_run["report"]
    phases = [(h["phase"], h.get("round")) for h in report["history"]]
    assert phases == [
        ("tumor", 0),
        ("tumor", 1),
        ("organ", 0),
        ("organ", 1),
        (MERGE, None),
    ]
    assert sorted(report["final_labels"]) == [f"case_{s}" for s in "abcdef"]
    for rec in report["history"][:4]:
        assert rec["fused"] >= 1
        assert rec["failed"] == []
    # round 0 of each phase misses case_f (its intensity offset sits outside
    # the teacher band); once round-0 pseudo-labels join training, the band
    # widens and round 1 captures it.
    voxels = [rec["foreground_voxels"] for rec in report["history"][:4]]
    assert voxels == [
        {"case_c": 64, "case_d": 64, "case_e": 64, "case_f": 0},
        {"case_c": 64, "case_d": 64, "case_e": 64, "case_f": 64},
        {"case_b": 192, "case_d": 192, "case_e": 192, "case_f": 0},
        {"case_b": 192, "case_d": 192, "case_e": 192, "case_f": 192},
    ]


def test_full_run_eval_improves_each_round(completed_run):
    scores = [h["eval"]["mean_dsc"] for h in completed_run["report"]["history"][:4]]
    assert scores == [0.0, 0.25, 0.25, 1.0]
    assert all(b >= a for a, b in zip(scores, scores[1:]))


def test_full_run_finals_match_designed_labels(completed_run):
    for cid in [f"case_{s}" for s in "abcdef"]:
        got = load_nifti(completed_run["work"] / "final" / f"{cid}.nii.gz")
        assert np.array_equal(got.data, make_label((1, 3, 5, 14), CASE_SHIFTS[cid]).data), cid
        assert set(np.unique(got.data)) == {0, 1, 3, 5, 14}


def test_full_run_preserves_ground_truth(completed_run):
    manifest = completed_run["manifest"]
    for cid in ("case_a", "case_b", "case_c"):
        rec = manifest.case(cid)
        gt = load_nifti(manifest.label_file(rec))
        final = load_nifti(completed_run["work"] / "final" / f"{cid}.nii.gz")
        fg = gt.data != 0
        assert np.array_equal(final.data[fg], gt.data[fg]), cid


def test_full_run_students_join_later_training(completed_run):
    r1 = completed_run["work"] / "rounds" / "tumor_r1" / "train_images"
    names = sorted(p.name.split(".")[0] for p in r1.glob("*.nii*"))
    # teachers + fused students; the held-out case never trains
    assert names == ["case_a", "case_b", "case_c", "case_d", "case_e"]
    labels = sorted(p.name.split(".")[0] for p in (r1.parent / "train_labels").glob("*.nii*"))
    assert labels == names


def test_full_run_tta_inputs_on_disk(completed_run):
    pred = completed_run["work"] / "rounds" / "tumor_r0" / "predict_images"
    files = sorted(p.name for p in pred.glob("case_c__tta*.nii.gz"))
    assert files == [f"case_c__tta{k}.nii.gz" for k in range(8)]
    # raw outputs hold one probability map per class per flipped input
    raw = completed_run["work"] / "rounds" / "tumor_r0" / "predict_raw"
    probs = sorted(p.name for p in raw.glob("case_c__tta0_prob_*.nii.gz"))
    assert probs == ["case_c__tta0_prob_0.nii.gz", "case_c__tta0_prob_14.nii.gz"]


def _gzip_xfl_and_first_block(path) -> tuple[int, int]:
    """A gzip file's XFL byte and the BTYPE of its first deflate block
    (0 = stored), for a header with no optional fields."""
    head = path.read_bytes()[:11]
    assert head[:3] == b"\x1f\x8b\x08" and head[3] == 0, path
    return head[8], (head[10] >> 1) & 3


def test_full_run_stages_tta_flips_as_stored_gzip(completed_run):
    work, manifest = completed_run["work"], completed_run["manifest"]
    specs = {spec.tag: spec for spec in enumerate_flips()}
    staged = sorted(work.glob("rounds/*/predict_images/*__tta*.nii.gz"))
    assert len(staged) == 4 * 4 * 8  # 4 rounds x 4 students x 8 flips
    for path in staged:
        assert _gzip_xfl_and_first_block(path) == (0, 0), path
        case_id, tag = path.name[: -len(".nii.gz")].split("__tta")
        want = apply_flip(load_nifti(manifest.image_file(manifest.case(case_id))), specs[int(tag)])
        got = load_nifti(path)
        assert np.array_equal(got.data, want.data) and got.data.dtype == want.data.dtype, path
        assert (got.spacing, got.extra) == (want.spacing, want.extra), path
    # every file voxseg keeps is still written at level 1 (XFL 4)
    kept = [p for pattern in ("pseudo_*/*.nii.gz", "final/*.nii.gz", "rounds/*/train_labels/*.nii.gz")
            for p in sorted(work.glob(pattern))]
    assert len(kept) == 4 + 4 + 6 + 2 * (2 + 5)
    assert {p: _gzip_xfl_and_first_block(p)[0] for p in kept} == {p: 4 for p in kept}


def test_full_run_per_round_eval_files(completed_run):
    for phase, rnd in (("tumor", 0), ("tumor", 1), ("organ", 0), ("organ", 1)):
        path = completed_run["work"] / "rounds" / f"{phase}_r{rnd}" / "eval.json"
        data = json.loads(path.read_text())
        assert data["n_cases"] == 1
        assert data["cases"][0]["case_id"] == "case_f"


def test_rerun_is_a_noop(completed_run):
    report = run_pipeline(completed_run["manifest"], completed_run["config"], completed_run["work"])
    assert report == completed_run["report"]


def test_resume_rejects_changed_config(completed_run):
    other = load_config(completed_run["dataset"]["config"], overrides=["nsd_tau=2.0"])
    with pytest.raises(PipelineError, match="different config"):
        run_pipeline(completed_run["manifest"], other, completed_run["work"])


def test_resume_rejects_a_snapshot_with_a_normalization_section(fixture_dataset, tmp_path):
    # work dirs made while the config had a ``normalization`` section do not resume
    manifest, config = _load(fixture_dataset)
    state = pipeline.open_state(manifest, config, tmp_path / "old")
    data = json.loads(state.path.read_text())
    data["config"]["normalization"] = {"clip_lo": -970.0, "clip_hi": 279.0, "mean": 80.3, "std": 141.4}
    state.path.write_text(json.dumps(data))
    with pytest.raises(PipelineError, match="created with a different config"):
        pipeline.open_state(manifest, config, tmp_path / "old")
    assert pipeline.open_state(manifest, config, tmp_path / "new").config == config.to_dict()


def test_validate_run_guards(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    bad_eval = load_config(fixture_dataset["config"], overrides=['eval_cases=["ghost"]'])
    with pytest.raises(PipelineError, match="not in the manifest"):
        run_pipeline(manifest, bad_eval, tmp_path / "w1")
    unlabeled_eval = load_config(fixture_dataset["config"], overrides=['eval_cases=["case_d"]'])
    with pytest.raises(PipelineError, match="no ground-truth label"):
        run_pipeline(manifest, unlabeled_eval, tmp_path / "w2")
    no_contract = load_config(fixture_dataset["config"], overrides=["segmenter=null"])
    with pytest.raises(PipelineError, match="segmenter is required"):
        run_pipeline(manifest, no_contract, tmp_path / "w3")
    ext = load_config(
        fixture_dataset["config"],
        overrides=['external_label_dirs={"ext": "/tmp/x"}'],
    )
    with pytest.raises(PipelineError, match="source_priority"):
        run_pipeline(manifest, ext, tmp_path / "w4")


def test_missing_external_dir_is_rejected_before_work(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    missing = tmp_path / "missing"
    config = load_config(
        fixture_dataset["config"],
        overrides=[f'external_label_dirs={{"ext": "{missing}"}}', 'fusion.source_priority=["own","ext"]'],
    )
    work = tmp_path / "work"
    with pytest.raises(PipelineError, match=rf"external source 'ext': {re.escape(str(missing))} is not a directory"):
        run_pipeline(manifest, config, work)
    assert not work.exists()


def _degenerate_config(paths, *extra):
    return load_config(
        paths["config"],
        overrides=["rounds_tumor=0", "rounds_organ=0", "segmenter=null", *extra],
    )


def test_degenerate_run_uses_only_ground_truth(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    config = _degenerate_config(fixture_dataset)
    report = run_pipeline(manifest, config, tmp_path / "work")
    assert [h["phase"] for h in report["history"]] == [MERGE]

    final = tmp_path / "work" / "final"
    full = make_label((1, 3, 5, 14)).data
    assert np.array_equal(load_nifti(final / "case_a.nii.gz").data, full)
    assert np.array_equal(load_nifti(final / "case_b.nii.gz").data, make_label((14,), CASE_SHIFTS["case_b"]).data)
    assert np.array_equal(load_nifti(final / "case_c.nii.gz").data, make_label((1, 3, 5), CASE_SHIFTS["case_c"]).data)
    # nothing is known for unlabeled or held-out cases
    assert not load_nifti(final / "case_d.nii.gz").data.any()
    assert not load_nifti(final / "case_f.nii.gz").data.any()


def test_external_sources_respect_priority(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    ext_dir = tmp_path / "ext"
    ext_dir.mkdir()
    claim = make_label((14,))
    save_nifti(claim, ext_dir / "case_d.nii.gz")

    ext_first = _degenerate_config(
        fixture_dataset,
        f'external_label_dirs={{"ext": "{ext_dir}"}}',
        'fusion.source_priority=["ext","own"]',
    )
    run_pipeline(manifest, ext_first, tmp_path / "w1")
    got = load_nifti(tmp_path / "w1" / "final" / "case_d.nii.gz")
    assert np.array_equal(got.data, claim.data)

    own_first = _degenerate_config(
        fixture_dataset,
        f'external_label_dirs={{"ext": "{ext_dir}"}}',
        'fusion.source_priority=["own","ext"]',
    )
    run_pipeline(manifest, own_first, tmp_path / "w2")
    got = load_nifti(tmp_path / "w2" / "final" / "case_d.nii.gz")
    assert not got.data.any()
    # ground truth still wins over any vote outcome
    got_a = load_nifti(tmp_path / "w1" / "final" / "case_a.nii.gz")
    assert np.array_equal(got_a.data, make_label((1, 3, 5, 14)).data)


def test_merge_reads_each_ground_truth_once(fixture_dataset, tmp_path, monkeypatch):
    manifest, _ = _load(fixture_dataset)
    config = _degenerate_config(fixture_dataset)
    loads = {}
    real_load = pipeline.load_nifti

    def counting_load(path):
        loads[str(path)] = loads.get(str(path), 0) + 1
        return real_load(path)

    monkeypatch.setattr(pipeline, "load_nifti", counting_load)
    report = run_pipeline(manifest, config, tmp_path / "work")
    assert [h["phase"] for h in report["history"]] == [MERGE]  # rounds 0/0: all loads are the merge's
    gt_loads = {r.case_id: loads.get(str(manifest.label_file(r)), 0)
                for r in manifest.cases if r.label_path}
    # case_f is held out: the merge overlays no ground truth on it
    assert gt_loads == {"case_a": 1, "case_b": 1, "case_c": 1, "case_f": 0}


def test_own_labels_of_a_teacher_are_zeros_x_fastest(fixture_dataset, tmp_path):
    # no pseudo label in either phase: zeros, laid out like the maps they are voted and saved with
    manifest, _ = _load(fixture_dataset)
    config = _degenerate_config(fixture_dataset)
    own = pipeline._own_labels(tmp_path, manifest, config, manifest.case("case_a"))
    assert own.dims == (24, 24, 16) and not own.data.any()
    assert own.data.flags.f_contiguous


@pytest.mark.parametrize("trust", [False, True])
def test_ground_truth_overrides_external_votes(fixture_dataset, tmp_path, trust):
    manifest, _ = _load(fixture_dataset)
    shift = CASE_SHIFTS["case_c"]
    gt = make_label((1, 3, 5), shift).data  # case_c, organ_only (1, 3, 5)
    dirs = {}
    for name, split_vote in (("e1", 7), ("e2", 8)):
        data = np.zeros_like(gt)
        data[blob_slices(1, shift)] = 2  # inside GT foreground: both sources say organ 2
        data[blob_slices(14, shift)] = 14  # outside it, a class case_c does not annotate
        data[0:2, 0:2, 0:2] = 3  # outside it, a class case_c annotates
        data[20:22, 20:22, 0:2] = split_vote  # the sources disagree: own (0) wins the tie
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        save_nifti(Volume(data, make_label(()).spacing), dirs[name] / "case_c.nii.gz")
    config = _degenerate_config(
        fixture_dataset,
        f"external_label_dirs={json.dumps({k: str(v) for k, v in dirs.items()})}",
        'fusion.source_priority=["own","e1","e2"]',
        f"fusion.gt_background_trust={str(trust).lower()}",
    )
    run_pipeline(manifest, config, tmp_path / "work")

    want = gt.copy()
    want[blob_slices(14, shift)] = 14
    want[0:2, 0:2, 0:2] = 0 if trust else 3
    got = load_nifti(tmp_path / "work" / "final" / "case_c.nii.gz").data
    assert np.array_equal(got, want)


def test_merge_failure_is_recorded_and_others_finish(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    ext_dir = tmp_path / "ext"
    ext_dir.mkdir()
    save_nifti(Volume(np.zeros((2, 2, 2), dtype=np.uint8), Spacing(1, 1, 1)), ext_dir / "case_d.nii.gz")
    config = _degenerate_config(
        fixture_dataset,
        f'external_label_dirs={{"ext": "{ext_dir}"}}',
        'fusion.source_priority=["own","ext"]',
    )
    with pytest.raises(PipelineError, match=r"merge: case_d$"):
        run_pipeline(manifest, config, tmp_path / "work")

    # the report is written before the error is raised
    report = json.loads((tmp_path / "work" / "report.json").read_text())
    entry = PipelineState.load(tmp_path / "work" / "state.json").cases["case_d"]
    assert entry["status"] == "failed"
    # the external map is read on the case's own grid, and the error names its file
    assert entry["error"] == "dim mismatch: image (24, 24, 16) vs case_d.nii.gz (2, 2, 2)", entry["error"]
    merge = report["history"][-1]
    assert merge["failed"] == ["case_d"]
    assert merge["fused"] == 5
    assert sorted(report["final_labels"]) == ["case_a", "case_b", "case_c", "case_e", "case_f"]
    final = tmp_path / "work" / "final"
    assert not (final / "case_d.nii.gz").exists()
    assert np.array_equal(load_nifti(final / "case_a.nii.gz").data, make_label((1, 3, 5, 14)).data)


def test_external_map_on_another_spacing_fails_that_case(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    ext_dir = tmp_path / "ext"
    ext_dir.mkdir()
    # the image's dims, but 3 mm voxels instead of the fixture's
    save_nifti(Volume(make_label((14,)).data, Spacing(3, 3, 3)), ext_dir / "case_d.nii.gz")
    config = _degenerate_config(
        fixture_dataset,
        f'external_label_dirs={{"ext": "{ext_dir}"}}',
        'fusion.source_priority=["ext","own"]',
    )
    with pytest.raises(PipelineError, match=r"merge: case_d$"):
        run_pipeline(manifest, config, tmp_path / "work")
    error = PipelineState.load(tmp_path / "work" / "state.json").cases["case_d"]["error"]
    assert error == "spacing mismatch: image (1.0, 1.0, 2.5) mm vs case_d.nii.gz (3.0, 3.0, 3.0) mm", error
    assert not (tmp_path / "work" / "final" / "case_d.nii.gz").exists()


def test_merge_digest_skip_and_redo(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    config = _degenerate_config(fixture_dataset)
    work = tmp_path / "work"
    run_pipeline(manifest, config, work)

    final = work / "final"
    pristine = (final / "case_a.nii.gz").read_bytes()
    b_mtime = (final / "case_b.nii.gz").stat().st_mtime_ns

    # tamper with one final map, then rewind the state to the merge stage
    save_nifti(make_label(()), final / "case_a.nii.gz")
    state = PipelineState.load(work / "state.json")
    state.phase = MERGE
    state.persist()
    run_merge(state, manifest, config)

    assert (final / "case_a.nii.gz").read_bytes() == pristine  # redone
    assert (final / "case_b.nii.gz").stat().st_mtime_ns == b_mtime  # skipped


def test_round_digest_skip_and_redo(fixture_dataset, tmp_path, monkeypatch):
    class Killed(Exception):
        pass

    def fake_exit(code):
        raise Killed(code)

    manifest, config = _load(fixture_dataset)
    state = PipelineState.fresh(tmp_path / "state.json", config)
    # writes 1-3: fresh, the train's end, the predict's end; 4-7: the four students' journal lines
    monkeypatch.setenv(CRASH_ENV, "7")
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Killed):
        run_phase(state, manifest, config)
    monkeypatch.delenv(CRASH_ENV)

    store = tmp_path / "pseudo_tumor"
    pristine = (store / "case_c.nii.gz").read_bytes()
    others = {c: (store / f"{c}.nii.gz").stat().st_mtime_ns for c in ("case_d", "case_e", "case_f")}
    save_nifti(make_label(()), store / "case_c.nii.gz")  # altered after its journal entry
    state = PipelineState.load(tmp_path / "state.json")
    assert sorted(state.cases) == ["case_c", "case_d", "case_e", "case_f"]
    run_phase(state, manifest, config)

    assert (store / "case_c.nii.gz").read_bytes() == pristine  # redone
    for cid, mtime in others.items():
        assert (store / f"{cid}.nii.gz").stat().st_mtime_ns == mtime, cid  # skipped
    assert state.round == 1 and state.history[-1]["fused"] == 4
    assert not list((tmp_path / "rounds").glob("*/fused"))


def test_phases_run_in_fixed_order(completed_run):
    # tumor, then organ: the phases share no class, so the order changes no label;
    # held-out evaluation runs while the organ phase has no pseudo labels yet
    history = completed_run["report"]["history"]
    assert [(h["phase"], h.get("round")) for h in history] == [
        ("tumor", 0), ("tumor", 1), ("organ", 0), ("organ", 1), (MERGE, None),
    ]
    assert [h["eval"]["mean_dsc"] for h in history[:4]] == [0.0, 0.25, 0.25, 1.0]
    assert all(h["failed"] == [] for h in history)
    assert sorted(completed_run["report"]["final_labels"]) == [f"case_{s}" for s in "abcdef"]
    for cid in completed_run["report"]["final_labels"]:
        got = load_nifti(completed_run["work"] / "final" / f"{cid}.nii.gz")
        assert np.array_equal(got.data, make_label((1, 3, 5, 14), CASE_SHIFTS[cid]).data), cid


def test_resume_after_the_last_tumor_round(completed_run, tmp_path, monkeypatch):
    class Killed(Exception):
        pass

    def fake_exit(code):
        raise Killed(code)

    manifest, config = completed_run["manifest"], completed_run["config"]
    work = tmp_path / "work"
    # writes: 1 fresh; per round the train's end, the predict's end, four students, end_round (7 each)
    monkeypatch.setenv(CRASH_ENV, "15")
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Killed):
        run_pipeline(manifest, config, work)
    monkeypatch.delenv(CRASH_ENV)

    state = PipelineState.load(work / "state.json")
    assert (state.phase, state.round) == ("organ", 0)
    assert [(h["phase"], h["round"]) for h in state.history] == [("tumor", 0), ("tumor", 1)]
    report = run_pipeline(manifest, config, work)
    assert report["history"] == completed_run["report"]["history"]
    for cid in [f"case_{s}" for s in "abcdef"]:
        got = (work / "final" / f"{cid}.nii.gz").read_bytes()
        assert got == (completed_run["work"] / "final" / f"{cid}.nii.gz").read_bytes(), cid


def _readme_work_tree():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return _work_tree(text.split("\n### Work directory\n", 1)[1].split("```\n", 2)[1])


def _work_tree(block):
    """``(top level, round dir)`` names in a work-directory tree; ``a/ b/``
    on one line names both, and indented lines belong to
    ``rounds/<phase>_r<k>/``."""
    top, rnd = set(), set()
    for line in block.splitlines():
        names = re.split(r"\s{2,}", line.strip())[0].split()
        (rnd if line.startswith(" ") else top).update(n.rstrip("/") for n in names)
    return top, rnd


def test_readme_work_tree_names_what_a_run_leaves(completed_run):
    top, rnd = _readme_work_tree()
    work = completed_run["work"]
    assert top == {"rounds/<phase>_r<k>" if n == "rounds" else n for n in os.listdir(work)}
    rounds = work / "rounds"
    assert sorted(os.listdir(rounds)) == ["organ_r0", "organ_r1", "tumor_r0", "tumor_r1"]
    for name in os.listdir(rounds):
        assert set(os.listdir(rounds / name)) == rnd, name


def test_work_tree_docs_list_the_run_entries():
    want = {"state.json", *pipeline.RUN_ENTRIES}
    readme, _ = _readme_work_tree()
    docstring, _ = _work_tree(textwrap.dedent(pipeline.__doc__.split("Work directory layout:\n", 1)[1]))
    for top in (readme, docstring):
        assert {name.split("/")[0] for name in top} == want


def _dataset_with_label(fixture_dataset, tmp_path, label: Volume):
    """A copy of the fixture dataset whose case_a label is ``label``."""
    root = tmp_path / "data"
    shutil.copytree(fixture_dataset["root"], root)
    save_nifti(label, root / "labels" / "case_a.nii.gz")
    return load_manifest(root / "manifest.json")


@pytest.mark.parametrize("label, grid", [
    (Volume(np.zeros((24, 24, 8), dtype=np.uint8), FIXTURE_SPACING),
     r"dim mismatch: image \(24, 24, 16\) vs label \(24, 24, 8\)$"),
    (Volume(np.zeros((24, 24, 16), dtype=np.uint8), Spacing(1, 1, 5)),
     r"spacing mismatch: image \(1.0, 1.0, 2.5\) mm vs label \(1.0, 1.0, 5.0\) mm$"),
], ids=["dims", "spacing"])
def test_label_off_its_image_grid_is_rejected_before_work(fixture_dataset, tmp_path, label, grid):
    manifest = _dataset_with_label(fixture_dataset, tmp_path, label)
    config = load_config(fixture_dataset["config"])
    work = tmp_path / "work"
    message = rf"case 'case_a': {grid}"
    with pytest.raises(PipelineError, match=message):
        run_pipeline(manifest, config, work)
    assert not work.exists()


def test_labels_mode_contract(fixture_dataset, tmp_path):
    # the same pipeline works when the segmenter emits label maps directly
    manifest, _ = _load(fixture_dataset)
    base = json.loads(fixture_dataset["config"].read_text())
    seg = base["segmenter"]
    config = load_config(
        fixture_dataset["config"],
        overrides=[
            'segmenter.output_mode=labels',
            'segmenter.predict_cmd='
            + seg["predict_cmd"].replace("--mode probabilities", "--mode labels"),
            "rounds_tumor=2",
            "rounds_organ=2",
        ],
    )
    report = run_pipeline(manifest, config, tmp_path / "work")
    scores = [h["eval"]["mean_dsc"] for h in report["history"][:4]]
    assert scores[-1] == 1.0
    want = make_label((1, 3, 5, 14), CASE_SHIFTS["case_f"]).data
    got = load_nifti(tmp_path / "work" / "final" / "case_f.nii.gz")
    assert np.array_equal(got.data, want)


def test_labels_mode_map_off_the_image_grid_fails_that_case(fixture_dataset, tmp_path):
    manifest, _ = _load(fixture_dataset)
    script = tmp_path / "predict.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from voxseg.nifti import nifti_files, save_nifti\n"
        "from voxseg.volume import Spacing, Volume\n"
        "inp, out = sys.argv[1:]\n"
        "for stem in nifti_files(inp):\n"
        "    vol = Volume(np.zeros((3, 3, 3), dtype=np.uint8), Spacing(1, 1, 1))\n"
        "    save_nifti(vol, f'{out}/{stem}.nii.gz')\n"
    )
    config = load_config(
        fixture_dataset["config"],
        overrides=[
            "segmenter.output_mode=labels",
            f"segmenter.predict_cmd={EXE} {script} {{input_dir}} {{output_dir}}",
            "rounds_tumor=1",
            "rounds_organ=0",
        ],
    )
    work = tmp_path / "work"
    with pytest.raises(PipelineError, match=r"tumor round 0: case_c, case_d, case_e, case_f$"):
        run_pipeline(manifest, config, work)

    # the report is written before the error is raised
    report = json.loads((work / "report.json").read_text())
    record = report["history"][0]
    assert (record["phase"], record["round"], record["fused"]) == ("tumor", 0, 0)
    assert record["failed"] == ["case_c", "case_d", "case_e", "case_f"]
    for cid, error in record["errors"].items():
        assert error == f"dim mismatch: image (24, 24, 16) vs {cid}.nii.gz (3, 3, 3)", error
    assert record["eval"]["mean_dsc"] == 0.0
    assert report["history"][-1]["failed"] == []
