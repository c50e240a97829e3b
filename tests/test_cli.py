import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxseg.cli import build_parser, main
from voxseg.config import load_config
from voxseg.state import PipelineState
from voxseg.nifti import load_nifti, save_nifti
from voxseg.tta import apply_flip_prob, argmax_labels, enumerate_flips
from voxseg.volume import ProbMap, Spacing, Volume


def _lab(values, spacing=(1, 1, 1)):
    return Volume(np.asarray(values, dtype=np.uint8), Spacing(*spacing))


def _save_lab(path, values, spacing=(1, 1, 1)):
    save_nifti(_lab(values, spacing), path)


def test_no_args_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_help_everywhere(capsys):
    assert main(["--help"]) == 0
    for cmd in (
        "run", "phase", "fuse", "evaluate", "preprocess",
        "monitor", "tta-aggregate", "postprocess", "mock-segmenter",
    ):
        assert main([cmd, "--help"]) == 0, cmd
        out = capsys.readouterr().out
        assert "--config" in out or "usage" in out


# Long options each subcommand accepts; a flag its handler ignores is not offered.
CLI_SURFACE = {
    "run": {"--config", "--set", "--manifest", "--work", "--verbose"},
    "phase": {"--config", "--set", "--manifest", "--work", "--verbose"},
    "fuse": {
        "--config", "--set", "--mode", "--source", "--organ", "--tumor", "--gt", "--pseudo",
        "--classes", "--out", "--verbose",
    },
    "evaluate": {"--config", "--set", "--pred", "--gt", "--out", "--json", "--verbose"},
    "preprocess": {"--image", "--out", "--verbose"},
    "monitor": {"--cmd", "--probe", "--period", "--floor", "--out", "--verbose"},
    "tta-aggregate": {"--input-dir", "--case", "--no-flips", "--out", "--verbose"},
    "postprocess": {"--config", "--set", "--input", "--classes", "--out", "--verbose"},
    "mock-segmenter train": {"--train-dir", "--label-dir", "--model-dir", "--verbose"},
    "mock-segmenter predict": {"--model-dir", "--input-dir", "--output-dir", "--mode", "--verbose"},
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_cli_surface():
    surface = {}
    for name, parser in _leaf_parsers(build_parser()):
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert all(a.option_strings for a in actions), name  # no positionals
        surface[name] = {o for a in actions for o in a.option_strings if o.startswith("--")}
    assert surface == CLI_SURFACE
    assert main(["run", "--manifest", "m", "--work", "w", "--state", "w/state.json"]) == 2
    assert main(["monitor", "--cmd", "true", "--config", "c.json"]) == 2
    assert main(["mock-segmenter"]) == 2
    # fuse rejects the flags of the modes it is not running
    assert main(["fuse", "--mode", "vote", "--source", "A=a", "--source", "B=b",
                 "--organ", "x", "--out", "o"]) == 2
    assert main(["fuse", "--mode", "organ-tumor", "--organ", "o", "--tumor", "t",
                 "--classes", "1", "--out", "o"]) == 2
    assert main(["fuse", "--mode", "merge-partial", "--gt", "g", "--pseudo", "p",
                 "--classes", "1", "--source", "A=a", "--out", "o"]) == 2
    for gone in ("--manifest", "--target", "--labels", "--no-normalize", "--config", "--set"):
        assert main(["preprocess", "--image", "i", "--out", "o", gone, "x"]) == 2, gone


def _readme_cli_rows():
    """(subcommands, flags) for each row of README's CLI table: the row's
    first code span names the subcommand (``train\\|predict`` names two
    leaves), and every ``--flag`` anywhere in the row counts."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    for row in section.splitlines():
        usage = re.match(r"\| `voxseg ([^`]+)`", row)
        if not usage:
            continue
        words = usage.group(1).split()
        names = [words[0]]
        if len(words) > 1 and not words[1].startswith("-"):
            names = [f"{words[0]} {leaf}" for leaf in words[1].split("\\|")]
        yield names, set(re.findall(r"--[a-z][a-z-]*", row))


def test_readme_cli_table_matches_the_parser():
    rows = list(_readme_cli_rows())
    documented = [name for names, _ in rows for name in names]
    assert sorted(documented) == sorted(name for name, _ in _leaf_parsers(build_parser()))
    for names, flags in rows:
        offered = set().union(*(CLI_SURFACE[name] for name in names))
        assert flags <= offered, f"{names}: README names {sorted(flags - offered)}"


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "voxseg", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "voxseg" in proc.stdout


def test_evaluate_identical_dirs(fixture_dataset, tmp_path, capsys):
    labels = str(fixture_dataset["root"] / "labels")
    csv_out = tmp_path / "cohort.csv"
    json_out = tmp_path / "cohort.json"
    code = main([
        "evaluate", "--pred", labels, "--gt", labels,
        "--out", str(csv_out), "--json", str(json_out),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean DSC over 4 case(s): 1.0000" in out
    assert csv_out.is_file()
    summary = json.loads(json_out.read_text())
    assert summary["mean_dsc"] == 1.0


def test_evaluate_missing_prediction(fixture_dataset, tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    code = main(["evaluate", "--pred", str(pred_dir), "--gt", str(fixture_dataset["root"] / "labels")])
    assert code == 1
    assert "no prediction for case" in capsys.readouterr().err


def test_evaluate_requires_flags():
    assert main(["evaluate"]) == 2
    assert main(["evaluate", "--pred", "x"]) == 2


def test_evaluate_truncated_file_is_a_domain_error(fixture_dataset, tmp_path, capsys):
    gt = fixture_dataset["root"] / "labels" / "case_a.nii.gz"
    pred = tmp_path / "case_a.nii.gz"
    pred.write_bytes(gt.read_bytes()[: gt.stat().st_size // 2])
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pred}: truncated or corrupt gzip stream"), err


def test_evaluate_file_dir_mismatch(fixture_dataset, tmp_path):
    gt = fixture_dataset["root"] / "labels" / "case_a.nii.gz"
    code = main(["evaluate", "--pred", str(fixture_dataset["root"] / "labels"), "--gt", str(gt)])
    assert code == 1


def test_fuse_vote_cli_order_breaks_ties(tmp_path):
    a, b = tmp_path / "a.nii", tmp_path / "b.nii"
    _save_lab(a, np.full((2, 2, 2), 1))
    _save_lab(b, np.full((2, 2, 2), 2))
    out = tmp_path / "fused.nii.gz"
    code = main(["fuse", "--mode", "vote", "--source", f"A={a}", "--source", f"B={b}", "--out", str(out)])
    assert code == 0
    assert (load_nifti(out).data == 1).all()
    # flipping the source order flips the tie
    out2 = tmp_path / "fused2.nii.gz"
    main(["fuse", "--mode", "vote", "--source", f"B={b}", "--source", f"A={a}", "--out", str(out2)])
    assert (load_nifti(out2).data == 2).all()


def test_fuse_vote_cli_order_keeps_min_votes(tmp_path):
    # Sources missing from the config's priority fall back to CLI order;
    # the other policy fields, min_votes here, must survive that.
    srcs = {"A": [1, 1], "B": [2, 1], "C": [3, 4]}
    args = ["fuse", "--mode", "vote"]
    for name, values in srcs.items():
        _save_lab(tmp_path / f"{name}.nii", np.reshape(values, (2, 1, 1)))
        args += ["--source", f"{name}={tmp_path / name}.nii"]
    out = tmp_path / "fused.nii"
    assert main(args + ["--out", str(out)]) == 0
    assert load_nifti(out).data.ravel().tolist() == [1, 1]
    assert main(args + ["--out", str(out), "--set", "fusion.min_votes=2"]) == 0
    assert load_nifti(out).data.ravel().tolist() == [0, 1]


def test_fuse_vote_needs_two_sources(tmp_path):
    a = tmp_path / "a.nii"
    _save_lab(a, np.zeros((2, 2, 2)))
    assert main(["fuse", "--mode", "vote", "--source", f"A={a}", "--out", str(tmp_path / "o.nii")]) == 2
    assert main(["fuse", "--mode", "vote", "--source", "A", "--source", "B", "--out", "o"]) == 2


def test_fuse_vote_dim_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.nii", tmp_path / "b.nii"
    _save_lab(a, np.zeros((2, 2, 2)))
    _save_lab(b, np.zeros((3, 2, 2)))
    code = main(["fuse", "--mode", "vote", "--source", f"A={a}", "--source", f"B={b}",
                 "--out", str(tmp_path / "o.nii")])
    assert code == 1
    assert "dim mismatch" in capsys.readouterr().err


def test_fuse_vote_directories(tmp_path, caplog):
    for d in ("s1", "s2"):
        (tmp_path / d).mkdir()
    _save_lab(tmp_path / "s1" / "x.nii.gz", np.full((2, 2, 2), 3))
    _save_lab(tmp_path / "s2" / "x.nii.gz", np.full((2, 2, 2), 3))
    _save_lab(tmp_path / "s1" / "only1.nii.gz", np.zeros((2, 2, 2)))
    out = tmp_path / "out"
    code = main(["fuse", "--mode", "vote",
                 "--source", f"one={tmp_path / 's1'}", "--source", f"two={tmp_path / 's2'}",
                 "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["x.nii.gz"]
    assert (load_nifti(out / "x.nii.gz").data == 3).all()


def test_fuse_organ_tumor(tmp_path):
    organ, tumor = tmp_path / "organ.nii", tmp_path / "tumor.nii"
    _save_lab(organ, np.array([[[1, 1, 0]]]))
    _save_lab(tumor, np.array([[[14, 0, 14]]]))
    out = tmp_path / "merged.nii.gz"
    code = main(["fuse", "--mode", "organ-tumor", "--organ", str(organ), "--tumor", str(tumor), "--out", str(out)])
    assert code == 0
    assert load_nifti(out).data.ravel().tolist() == [14, 1, 14]
    assert main(["fuse", "--mode", "organ-tumor", "--organ", str(organ), "--out", "o"]) == 2


def test_fuse_merge_partial(tmp_path):
    gt, pseudo = tmp_path / "gt.nii", tmp_path / "pseudo.nii"
    _save_lab(gt, np.array([[[5, 0]]]))
    _save_lab(pseudo, np.array([[[1, 1]]]))
    out = tmp_path / "merged.nii.gz"
    code = main(["fuse", "--mode", "merge-partial", "--gt", str(gt), "--pseudo", str(pseudo),
                 "--classes", "5", "--out", str(out)])
    assert code == 0
    assert load_nifti(out).data.ravel().tolist() == [5, 1]
    assert main(["fuse", "--mode", "merge-partial", "--gt", str(gt), "--pseudo", str(pseudo), "--out", "o"]) == 2


def test_preprocess_normalizes_by_default(tmp_path):
    src = tmp_path / "in.nii"
    data = np.array([-2000.0, 80.3, 279.0], dtype=np.float32).reshape((3, 1, 1))
    save_nifti(Volume(data, Spacing(1, 1, 1)), src)
    out = tmp_path / "out.nii.gz"
    assert main(["preprocess", "--image", str(src), "--out", str(out)]) == 0
    got = load_nifti(out).data.ravel()
    assert abs(got[0] - (-7.427864)) < 1e-5
    assert abs(got[1]) < 1e-6
    assert abs(got[2] - 1.405233) < 1e-5


def test_preprocess_missing_input_is_domain_error(tmp_path):
    assert main(["preprocess", "--image", str(tmp_path / "nope.nii"), "--out", str(tmp_path / "o.nii")]) == 1


def test_set_overrides_change_behavior(tmp_path):
    src = tmp_path / "in.nii"
    data = np.zeros((2, 2, 1), dtype=np.uint8)
    data[0, 0] = data[1, 1] = 1  # one component under 26-connectivity, two under 6
    _save_lab(src, data)
    out = tmp_path / "out.nii"

    def kept(*overrides):
        flags = [w for o in overrides for w in ("--set", o)]
        assert main(["postprocess", "--input", str(src), "--out", str(out), *flags]) == 0
        return int(load_nifti(out).data.sum())

    assert kept() == 2
    assert kept("connectivity=6") == 1
    assert kept("connectivity=6", "keep_largest_classes=[2]") == 2
    # a malformed override is a domain error, not a crash
    assert main(["postprocess", "--input", str(src), "--out", str(out), "--set", "oops"]) == 1


def test_monitor_success_and_report(tmp_path, capsys):
    out = tmp_path / "eff.json"
    code = main(["monitor", "--cmd", f"{sys.executable} -c pass",
                 "--probe", "echo 2147483648", "--period", "0.05", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "runtime" in printed and "GB*s" in printed
    report = json.loads(out.read_text())
    assert report["peak_mem_gb"] == 2.0
    assert report["runtime_over_tolerance_s"] == 0.0


def test_monitor_report_uses_the_floor_flag(tmp_path, capsys):
    # 3 GB for the whole run: above a 2 GB floor, below the default 4 GB one
    out = tmp_path / "eff.json"
    code = main(["monitor", "--cmd", f"{sys.executable} -c 'import time; time.sleep(0.3)'",
                 "--probe", "echo 3221225472", "--period", "0.05", "--floor", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    # 1 GB above the floor from the first sample to the end
    assert 0.5 * report["runtime_s"] < report["mem_auc_gb_s"] <= report["runtime_s"]
    assert f"AUC above 2 GB: {report['mem_auc_gb_s']:.3f} GB*s" in capsys.readouterr().out


def test_monitor_propagates_child_failure(capsys):
    code = main(["monitor", "--cmd", f"{sys.executable} -c 'raise SystemExit(5)'",
                 "--probe", "echo 0", "--period", "0.05"])
    assert code == 1
    assert "exited with 5" in capsys.readouterr().err


def test_monitor_requires_cmd():
    assert main(["monitor"]) == 2


def test_monitor_rejects_an_unparsable_cmd(capsys):
    assert main(["monitor", "--cmd", "echo 'x"]) == 2
    assert "error: cannot parse command template \"echo 'x\"" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["", "   "])
def test_monitor_rejects_an_empty_cmd(capsys, cmd):
    assert main(["monitor", "--cmd", cmd]) == 2
    assert f"error: command template {cmd!r} names no command" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--period", "nan"], "period must be positive and finite"),
    (["--period", "inf"], "period must be positive and finite"),
    (["--period", "0"], "period must be positive and finite"),
    (["--floor", "nan"], "--floor must be finite"),
    (["--floor", "inf"], "--floor must be finite"),
    (["--probe", "echo 'x"], "cannot parse command template"),
    (["--probe", ""], "names no command"),
    (["--probe", "echo {pid.x}"], "bad placeholder"),
])
def test_monitor_rejects_bad_flags_before_the_command_starts(tmp_path, capsys, flags, message):
    marker = tmp_path / "started"
    cmd = f"{sys.executable} -c \"open({str(marker)!r}, 'w')\""
    assert main(["monitor", "--cmd", cmd, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not marker.exists()


def test_monitor_rejects_a_probe_placeholder_with_a_conversion(tmp_path, capsys):
    marker = tmp_path / "started"
    cmd = f"{sys.executable} -c \"open({str(marker)!r}, 'w')\""
    assert main(["monitor", "--cmd", cmd, "--probe", "echo {pid!r}"]) == 2
    assert "bad placeholder" in capsys.readouterr().err
    assert not marker.exists()


def test_monitor_skips_a_negative_probe_reading(capsys):
    # every sample is skipped, so the trace is too short to score: a domain error, not a usage one
    assert main(["monitor", "--cmd", f"{sys.executable} -c pass", "--period", "0.05",
                 "--probe", "echo -5"]) == 1
    assert "trace needs >= 2 samples" in capsys.readouterr().err


def test_monitor_probe_fills_the_pid_inside_a_word(capsys):
    # the probe answers 2 GB only when its last word is "pid=<digits>"
    check = "import sys; w = sys.argv[1]; print(2147483648 if w[4:].isdigit() and w[:4] == 'pid=' else 0)"
    code = main(["monitor", "--cmd", f"{sys.executable} -c pass", "--period", "0.05",
                 "--probe", f'{sys.executable} -c "{check}" pid={{pid}}'])
    assert code == 0
    assert "peak 2.000 GB" in capsys.readouterr().out


def test_tta_aggregate_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    dims = (3, 4, 5)
    w = np.where(rng.random(dims) < 0.5, 0.3, 0.7).astype(np.float32)
    probs = np.stack([w, 1 - w])
    base = ProbMap(probs, (0, 5), Spacing(1, 1, 1))
    for spec in enumerate_flips():
        flipped = apply_flip_prob(base, spec)
        for i, c in enumerate(base.classes):
            save_nifti(
                Volume(np.ascontiguousarray(flipped.probs[i]), base.spacing),
                tmp_path / f"case_x__tta{spec.tag}_prob_{c}.nii.gz",
            )
    out = tmp_path / "labels.nii.gz"
    code = main(["tta-aggregate", "--input-dir", str(tmp_path), "--case", "case_x", "--out", str(out)])
    assert code == 0
    want = argmax_labels(base)
    assert np.array_equal(load_nifti(out).data, want.data)


def test_tta_aggregate_no_flips(tmp_path):
    w = np.full((2, 2, 2), 0.9, dtype=np.float32)
    for c, chan in ((0, 1 - w), (14, w)):
        save_nifti(Volume(chan, Spacing(1, 1, 1)), tmp_path / f"case_y_prob_{c}.nii.gz")
    out = tmp_path / "labels.nii.gz"
    code = main(["tta-aggregate", "--input-dir", str(tmp_path), "--case", "case_y", "--no-flips", "--out", str(out)])
    assert code == 0
    assert (load_nifti(out).data == 14).all()


def test_tta_aggregate_missing_maps(tmp_path, capsys):
    code = main(["tta-aggregate", "--input-dir", str(tmp_path), "--case", "ghost",
                 "--no-flips", "--out", str(tmp_path / "o.nii")])
    assert code == 1
    assert "no probability maps" in capsys.readouterr().err


def test_postprocess_file(tmp_path):
    src = tmp_path / "in.nii"
    data = np.zeros((7, 1, 1), dtype=np.uint8)
    data[0:2] = 1
    data[5] = 1
    _save_lab(src, data)
    out = tmp_path / "out.nii.gz"
    code = main(["postprocess", "--input", str(src), "--out", str(out), "--classes", "1",
                 "--set", "connectivity=6"])
    assert code == 0
    assert load_nifti(out).data.ravel().tolist() == [1, 1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("flags, want", [
    (["--classes", ""], [1, 0, 1]),
    (["--classes", ","], [1, 0, 1]),
    ([], [1, 0, 0]),
], ids=["empty", "comma", "absent"])
def test_postprocess_empty_class_list_prunes_nothing(tmp_path, flags, want):
    # any --classes value is the list; only an absent flag means the config's
    src, out = tmp_path / "in.nii", tmp_path / "out.nii"
    _save_lab(src, np.array([1, 0, 1]).reshape((3, 1, 1)))
    assert main(["postprocess", "--input", str(src), "--out", str(out), *flags]) == 0
    assert load_nifti(out).data.ravel().tolist() == want


@pytest.mark.parametrize("classes", ["99", "0", "-1", "300", "1,a"])
def test_class_lists_take_ids_1_to_14(tmp_path, capsys, classes):
    lab = tmp_path / "lab.nii"
    _save_lab(lab, np.ones((2, 1, 1)))
    out = tmp_path / "out.nii"
    commands = (
        ["postprocess", "--input", str(lab)],
        ["fuse", "--mode", "merge-partial", "--gt", str(lab), "--pseudo", str(lab)],
    )
    for command in commands:
        assert main([*command, "--classes", classes, "--out", str(out)]) == 1, command
        assert f"bad class list {classes!r}" in capsys.readouterr().err
        assert not out.exists()


def test_file_or_directory_commands_reject_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a volume")
    for cmd, flag in (("preprocess", "--image"), ("postprocess", "--input")):
        out = tmp_path / cmd
        assert main([cmd, flag, str(empty), "--out", str(out)]) == 1
        assert f"no NIfTI files in {empty}" in capsys.readouterr().err
        assert not out.exists()


def test_mock_segmenter_cli(tmp_path):
    img_dir, lab_dir = tmp_path / "img", tmp_path / "lab"
    img_dir.mkdir()
    lab_dir.mkdir()
    image = np.zeros((6, 6, 4), dtype=np.int16)
    labels = np.zeros((6, 6, 4), dtype=np.uint8)
    image[1:4, 1:4, 1:3] = 100
    labels[1:4, 1:4, 1:3] = 5
    save_nifti(Volume(image, Spacing(1, 1, 1)), img_dir / "a.nii.gz")
    _save_lab(lab_dir / "a.nii.gz", labels)
    code = main(["mock-segmenter", "train", "--train-dir", str(img_dir),
                 "--label-dir", str(lab_dir), "--model-dir", str(tmp_path / "model")])
    assert code == 0
    code = main(["mock-segmenter", "predict", "--model-dir", str(tmp_path / "model"),
                 "--input-dir", str(img_dir), "--output-dir", str(tmp_path / "out"),
                 "--mode", "labels"])
    assert code == 0
    pred = load_nifti(tmp_path / "out" / "a.nii.gz")
    assert np.array_equal(pred.data, labels)
    # usage errors for missing flags
    assert main(["mock-segmenter", "train"]) == 2


def test_run_cli_on_completed_work(completed_run, capsys):
    code = main([
        "run",
        "--manifest", str(completed_run["dataset"]["manifest"]),
        "--config", str(completed_run["dataset"]["config"]),
        "--work", str(completed_run["work"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final labels: 6 case(s)" in out
    assert "held-out mean DSC per round: 0.0000, 0.2500, 0.2500, 1.0000" in out


def test_run_cli_exits_1_when_a_case_failed(fixture_dataset, tmp_path, capsys):
    ext = tmp_path / "ext"
    ext.mkdir()
    _save_lab(ext / "case_d.nii.gz", np.zeros((2, 2, 2)))  # wrong dims: case_d fails in merge
    code = main([
        "run",
        "--manifest", str(fixture_dataset["manifest"]),
        "--config", str(fixture_dataset["config"]),
        "--work", str(tmp_path / "work"),
        "--set", "rounds_tumor=0", "--set", "rounds_organ=0", "--set", "segmenter=null",
        "--set", f'external_label_dirs={{"ext": "{ext}"}}',
        "--set", 'fusion.source_priority=["own","ext"]',
    ])
    assert code == 1
    assert "merge: case_d" in capsys.readouterr().err
    assert (tmp_path / "work" / "report.json").exists()


def test_run_cli_rejects_malformed_manifest(fixture_dataset, tmp_path, capsys):
    entry = json.loads(fixture_dataset["manifest"].read_text())[2]  # case_c, organ_only
    manifest = tmp_path / "manifest.json"
    for records, message in [
        (["case_a"], "case record must be a JSON object"),
        ([dict(entry, annotated_classes=["liver"])], "annotated_classes must be class ids"),
    ]:
        manifest.write_text(json.dumps(records))
        code = main(["run", "--manifest", str(manifest), "--config", str(fixture_dataset["config"]),
                     "--work", str(tmp_path / "work")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_run_cli_requires_manifest_and_work(fixture_dataset):
    assert main(["run", "--config", str(fixture_dataset["config"])]) == 2
    assert main(["run", "--manifest", str(fixture_dataset["manifest"]),
                 "--config", str(fixture_dataset["config"])]) == 2


def test_phase_cli_single_round(fixture_dataset, tmp_path, capsys):
    code = main([
        "phase",
        "--manifest", str(fixture_dataset["manifest"]),
        "--config", str(fixture_dataset["config"]),
        "--work", str(tmp_path / "work"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase tumor round 0: fused 4/4" in out
    state = json.loads((tmp_path / "work" / "state.json").read_text())
    assert state["round"] == 1


def test_phase_cli_runs_the_configured_rounds_then_run_merges(completed_run, tmp_path, capsys):
    dataset = completed_run["dataset"]
    work = tmp_path / "work"
    base = ["--manifest", str(dataset["manifest"]), "--config", str(dataset["config"]),
            "--work", str(work)]
    for phase, rnd in (("tumor", 0), ("tumor", 1), ("organ", 0), ("organ", 1)):
        assert main(["phase", *base]) == 0, (phase, rnd)
        assert f"phase {phase} round {rnd}: fused" in capsys.readouterr().out
    # every configured round is done: the state names the merge
    before = (work / "state.json").read_bytes()
    assert main(["phase", *base]) == 1
    err = capsys.readouterr().err
    assert "no round is left: the run's next step is 'merge'; `voxseg run` merges" in err
    assert (work / "state.json").read_bytes() == before
    assert main(["run", *base]) == 0
    report = json.loads((work / "report.json").read_text())
    assert report["history"] == completed_run["report"]["history"]
    for cid in [f"case_{s}" for s in "abcdef"]:
        got = load_nifti(work / "final" / f"{cid}.nii.gz").data
        want = load_nifti(completed_run["work"] / "final" / f"{cid}.nii.gz").data
        assert np.array_equal(got, want), cid


def test_phase_cli_validates_config_before_training(fixture_dataset, tmp_path, capsys):
    work = tmp_path / "work"
    code = main([
        "phase",
        "--manifest", str(fixture_dataset["manifest"]),
        "--config", str(fixture_dataset["config"]),
        "--work", str(work),
        "--set", 'eval_cases=["ghost"]',
    ])
    assert code == 1
    assert "eval case 'ghost' is not in the manifest" in capsys.readouterr().err
    assert not work.exists()


def test_phase_cli_exits_1_when_a_case_failed(fixture_dataset, tmp_path, capsys):
    code = main([
        "phase",
        "--manifest", str(fixture_dataset["manifest"]),
        "--config", str(fixture_dataset["config"]),
        "--work", str(tmp_path / "work"),
        "--set", "segmenter.output_mode=labels",
        "--set", 'segmenter.predict_cmd="true"',  # exits 0 and writes nothing
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "phase tumor round 0: fused 0/4" in captured.out
    assert "tumor round 0: case_" in captured.err
    # the reasons outlive the round, whose end empties the case entries
    state = json.loads((tmp_path / "work" / "state.json").read_text())
    assert state["cases"] == {}
    errors = state["history"][-1]["errors"]
    assert sorted(errors) == ["case_c", "case_d", "case_e", "case_f"]
    assert all("segmenter wrote no label map" in text for text in errors.values())


def test_non_string_command_template_is_config_error(fixture_dataset, tmp_path, capsys):
    code = main([
        "run",
        "--manifest", str(fixture_dataset["manifest"]),
        "--config", str(fixture_dataset["config"]),
        "--work", str(tmp_path / "work"),
        "--set", "segmenter.predict_cmd=true",  # a JSON bool, not the command "true"
    ])
    assert code == 1
    assert "segmenter.predict_cmd must be a string, got True" in capsys.readouterr().err


def test_phase_cli_refuses_work_from_other_config(fixture_dataset, tmp_path, capsys):
    work = tmp_path / "work"
    base = ["phase",
            "--manifest", str(fixture_dataset["manifest"]),
            "--config", str(fixture_dataset["config"]),
            "--work", str(work)]
    config = load_config(fixture_dataset["config"])
    work.mkdir()
    PipelineState.fresh(work / "state.json", replace(config, nsd_tau=config.nsd_tau * 2))
    before = (work / "state.json").read_text()
    assert main(base) == 1
    assert "different config" in capsys.readouterr().err
    assert (work / "state.json").read_text() == before


def test_run_cli_refuses_a_used_work_dir_without_state(completed_run, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(completed_run["work"], work)
    base = ["run",
            "--manifest", str(completed_run["dataset"]["manifest"]),
            "--config", str(completed_run["dataset"]["config"]),
            "--work", str(work)]
    assert main([*base, "--fresh"]) == 2
    (work / "state.json").unlink()
    # a fresh run would train its first round on the earlier run's pseudo labels
    assert main(base) == 1
    assert f"error: {work} holds state.json.journal but no state.json" in capsys.readouterr().err
    assert not (work / "state.json").exists()


def _cut_manifest(dataset, tmp_path, case_ids):
    """A manifest of the fixture's ``case_ids`` only, with absolute paths."""
    records = [
        {k: str(dataset["root"] / v) if k.endswith("_path") else v for k, v in rec.items()}
        for rec in json.loads(dataset["manifest"].read_text()) if rec["case_id"] in case_ids
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(records))
    return path


def test_run_with_no_students_launches_no_predict(fixture_dataset, tmp_path, capsys):
    # case_a and case_b both annotate the tumor, so its round has no student
    work = tmp_path / "work"
    code = main([
        "run",
        "--manifest", str(_cut_manifest(fixture_dataset, tmp_path, {"case_a", "case_b"})),
        "--config", str(fixture_dataset["config"]),
        "--work", str(work),
        "--set", "rounds_tumor=1", "--set", "rounds_organ=0", "--set", "eval_cases=[]",
        "--set", "tta=false",
    ])
    assert code == 0, capsys.readouterr().err
    record = json.loads((work / "report.json").read_text())["history"][0]
    assert (record["phase"], record["students"], record["fused"]) == ("tumor", 0, 0)
    assert os.listdir(work / "rounds" / "tumor_r0" / "logs") == ["train.log"]
    # writes: fresh, the train's end, the predict's end, end_round, two merged cases, finish
    assert json.loads((work / "state.json").read_text())["persist_count"] == 7


def test_run_rejects_a_phase_without_teachers_before_any_work(fixture_dataset, tmp_path, capsys):
    # case_b annotates only the tumor, and case_d and case_e nothing
    work = tmp_path / "work"
    code = main([
        "run",
        "--manifest", str(_cut_manifest(fixture_dataset, tmp_path, {"case_b", "case_d", "case_e"})),
        "--config", str(fixture_dataset["config"]),
        "--work", str(work),
        "--set", "rounds_tumor=1", "--set", "rounds_organ=1", "--set", "eval_cases=[]",
    ])
    assert code == 1
    assert "error: organ phase has no teacher cases annotating its classes" in capsys.readouterr().err
    assert not (work / "rounds").exists()
