"""Acceptance checks for the full pipeline, one test per criterion.

Each test prints a single ``criterion N [PASS|FAIL]`` line directly to
the terminal (bypassing capture) so a ``pytest -v`` run shows the
scorecard inline.
"""
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from voxseg.fusion import FusionPolicy, PartialLabel, majority_vote, merge_organ_tumor, merge_partial
from voxseg.metrics import NsdParams, dsc, edt, nsd
from voxseg.monitor import BYTES_PER_GB, ResourceTrace, auc_above_floor, efficiency_report
from voxseg.nifti import load_nifti, save_nifti
from voxseg.postprocess import connected_components, keep_largest
from voxseg.preprocess import clip_normalize
from voxseg.tta import apply_flip_prob, enumerate_flips, aggregate
from voxseg.volume import ProbMap, Spacing, Volume

from conftest import rand_labels, rand_spacing, vol
from oracles import components_ref, dsc_ref, edt_ref, nsd_ref, vote_ref


@contextmanager
def _scored(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} [FAIL] {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num} [PASS] {label}", flush=True)


def test_criterion_1_metrics_match_oracles(capsys):
    with _scored(capsys, 1, "DSC exact, EDT within 1e-9 mm, NSD exact on 200 random maps"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(200):
            pred = rng.random((6, 6, 6)) < rng.uniform(0.05, 0.6)
            gt = rng.random((6, 6, 6)) < rng.uniform(0.05, 0.6)
            spacing = rand_spacing(rng)
            assert dsc(pred, gt) == dsc_ref(pred, gt)
            got_edt = edt(gt, spacing)
            want_edt = edt_ref(gt, spacing.as_tuple())
            if gt.any():
                assert np.abs(got_edt - want_edt).max() < 1e-9
            else:
                assert np.isinf(got_edt).all() and np.isinf(want_edt).all()
            tau = float(rng.uniform(0.5, 3.0))
            assert nsd(pred, gt, spacing, NsdParams(tau=tau)) == nsd_ref(
                pred, gt, spacing.as_tuple(), tau
            )
        assert time.perf_counter() - start < 30.0


def test_criterion_2_normalization_constants(capsys):
    with _scored(capsys, 2, "clip/z-normalization reproduces frozen reference values"):
        data = np.array([-2000.0, 80.3, 279.0], dtype=np.float32).reshape((3, 1, 1))
        out = clip_normalize(Volume(data, Spacing(1, 1, 1))).data.ravel()
        assert abs(out[0] - (-7.427864)) <= 1e-6
        assert abs(out[1] - 0.0) <= 1e-6
        assert abs(out[2] - 1.405233) <= 1e-6


def test_criterion_3_fusion_semantics(capsys):
    with _scored(capsys, 3, "vote matches tally oracle; gt never erased; tumor count preserved"):
        rng = np.random.default_rng(3003)
        names = ("s0", "s1", "s2", "s3")
        for _ in range(200):
            n = int(rng.integers(1, 5))
            srcs = [
                (names[i], vol(rand_labels(rng, (5, 5, 5), classes=(0, 1, 2, 14))))
                for i in range(n)
            ]
            min_votes = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
            policy = FusionPolicy(source_priority=names, min_votes=min_votes)
            got = majority_vote(srcs, policy)
            want = vote_ref([(s, v.data) for s, v in srcs], names, min_votes)
            assert np.array_equal(got.data, want)

            gt_data = rand_labels(rng, (5, 5, 5), classes=(0, 1, 14))
            gt = PartialLabel(vol(gt_data), annotated_classes=frozenset({1, 14}))
            merged = merge_partial(gt, got, policy)
            fg = gt_data != 0
            assert np.array_equal(merged.data[fg], gt_data[fg])

            organ = vol(rand_labels(rng, (5, 5, 5), classes=(0,) + tuple(range(1, 14))))
            tumor = vol(rand_labels(rng, (5, 5, 5), classes=(0, 14)))
            both = merge_organ_tumor(organ, tumor)
            assert (both.data == 14).sum() == (tumor.data == 14).sum()


def test_criterion_4_volume_io_roundtrip(capsys, tmp_path):
    with _scored(capsys, 4, "100 random volumes round-trip bit-exact across dtypes and gzip"):
        rng = np.random.default_rng(4004)
        dtypes = (np.uint8, np.int16, np.uint16, np.float32)
        for i in range(100):
            dtype = dtypes[i % 4]
            dims = tuple(rng.integers(2, 9, size=3))
            if np.dtype(dtype).kind == "f":
                data = rng.normal(0, 500, size=dims).astype(dtype)
            else:
                info = np.iinfo(dtype)
                data = rng.integers(info.min, info.max + 1, size=dims, dtype=dtype)
            spacing = rand_spacing(rng)
            path = tmp_path / ("v.nii.gz" if i % 2 else "v.nii")
            save_nifti(Volume(data, spacing), path)
            back = load_nifti(path)
            assert back.data.dtype == np.dtype(dtype)
            assert np.array_equal(back.data, data)
            assert all(
                abs(a - b) <= 1e-6
                for a, b in zip(back.spacing.as_tuple(), spacing.as_tuple())
            )


def test_criterion_5_tta_reconstruction(capsys):
    with _scored(capsys, 5, "8-flip aggregation reconstructs the base map within 1e-6"):
        rng = np.random.default_rng(5005)
        for _ in range(20):
            raw = rng.random((3, 5, 6, 4))
            probs = (raw / raw.sum(axis=0)).astype(np.float32)
            base = ProbMap(probs, (0, 1, 14), Spacing(1, 1, 2.5))
            entries = [(spec, apply_flip_prob(base, spec)) for spec in enumerate_flips()]
            merged = aggregate(entries)
            assert np.abs(merged.probs - base.probs).max() < 1e-6


def test_criterion_6_components_and_pruning(capsys):
    with _scored(capsys, 6, "components match flood-fill oracle; keep_largest idempotent"):
        rng = np.random.default_rng(6006)
        for _ in range(200):
            mask = rng.random((6, 6, 6)) < rng.uniform(0.1, 0.6)
            for conn in (6, 26):
                got = connected_components(mask, conn)
                want_labels, want_sizes = components_ref(mask, conn)
                assert np.array_equal(got.labels, want_labels)
                assert got.sizes.tolist() == want_sizes

                labels = vol(mask.astype(np.uint8) * 7)
                once = keep_largest(labels, classes=(7,), connectivity=conn)
                twice = keep_largest(once, classes=(7,), connectivity=conn)
                assert np.array_equal(once.data, twice.data)
                kept = once.data == 7
                if want_sizes:
                    assert kept.sum() == max(want_sizes)
                    assert connected_components(kept, conn).count == 1


def test_criterion_7_fixture_pipeline(capsys, completed_run):
    with _scored(capsys, 7, "fixture run improves held-out DSC and labels all classes"):
        history = completed_run["report"]["history"]
        scores = [h["eval"]["mean_dsc"] for h in history if "eval" in h]
        assert len(scores) == 4
        assert scores[1] >= scores[0]  # tumor phase, round 2 vs round 1
        assert scores[3] >= scores[2]  # organ phase, round 2 vs round 1
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        for cid in [f"case_{s}" for s in "abcdef"]:
            final = load_nifti(completed_run["work"] / "final" / f"{cid}.nii.gz")
            present = set(np.unique(final.data))
            assert present & set(range(1, 14)), f"{cid} lacks organ labels"
            assert 14 in present, f"{cid} lacks a tumor label"
        assert completed_run["elapsed_s"] < 120.0


def test_criterion_8_crash_resume_identical(capsys, completed_run, tmp_path):
    with _scored(capsys, 8, "3 randomized kill points resume to bit-identical labels"):
        state = json.loads((completed_run["work"] / "state.json").read_text())
        total_persists = state["persist_count"]
        assert total_persists > 3
        rng = np.random.default_rng(8008)
        kill_points = sorted(rng.choice(np.arange(1, total_persists + 1), size=3, replace=False).tolist())
        argv = [
            sys.executable, "-m", "voxseg", "run",
            "--manifest", str(completed_run["dataset"]["manifest"]),
            "--config", str(completed_run["dataset"]["config"]),
        ]
        for k in kill_points:
            work = tmp_path / f"kill_{k}"
            env = dict(os.environ, VOXSEG_CRASH_AFTER=str(k))
            crashed = subprocess.run(
                argv + ["--work", str(work)], env=env, capture_output=True, text=True
            )
            assert crashed.returncode == 137, crashed.stderr
            resumed = subprocess.run(
                argv + ["--work", str(work)], capture_output=True, text=True
            )
            assert resumed.returncode == 0, resumed.stderr
            for cid in [f"case_{s}" for s in "abcdef"]:
                got = (work / "final" / f"{cid}.nii.gz").read_bytes()
                want = (completed_run["work"] / "final" / f"{cid}.nii.gz").read_bytes()
                assert got == want, f"kill at persist {k}: {cid} differs"


def test_criterion_9_efficiency_scoring(capsys):
    with _scored(capsys, 9, "memory AUC and runtime tolerance match frozen values"):
        const = ResourceTrace(((0.0, 6 * BYTES_PER_GB), (10.0, 6 * BYTES_PER_GB)))
        assert abs(auc_above_floor(const) - 20.0) <= 1e-9
        ramp = ResourceTrace(((0.0, 4 * BYTES_PER_GB), (10.0, 6 * BYTES_PER_GB)))
        assert abs(auc_above_floor(ramp) - 10.0) <= 1e-9
        assert abs(efficiency_report(const, 17.5).runtime_over_tolerance_s - 2.5) <= 1e-9
        assert abs(efficiency_report(const, 10.0).runtime_over_tolerance_s - 0.0) <= 1e-9
        assert abs(efficiency_report(const, 15.0).runtime_over_tolerance_s - 0.0) <= 1e-9
