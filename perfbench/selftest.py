"""Self-tests of the benchmark itself; they do not run voxseg.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection.
"""
from __future__ import annotations

import json
import shutil
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import layers
import run
import workloads
from niftiio import load, save

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root; the root's own path is blanked out of the
    config, which names input directories by absolute path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "config.json":
                data = data.replace(str(root).encode(), b"<root>")
            out[str(path.relative_to(root))] = data
    return out


class Scratch(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))

    def tearDown(self):
        shutil.rmtree(self.tmp)


class GeneratorsAreSeeded(Scratch):
    def _generate(self, name: str, seed: int, tag: str) -> dict[str, bytes]:
        wl = workloads.GENERATORS[name](self.tmp / tag, seed)
        self.assertTrue(wl.manifest.exists() and wl.config.exists())
        return _tree_bytes(self.tmp / tag)

    def test_same_seed_same_inputs(self):
        for name in ("cohort", "ct"):
            with self.subTest(workload=name):
                first = self._generate(name, 3, f"{name}-a")
                self.assertEqual(first, self._generate(name, 3, f"{name}-b"))

    def test_seed_changes_inputs(self):
        for name in ("cohort", "ct"):
            with self.subTest(workload=name):
                self.assertNotEqual(
                    self._generate(name, 3, f"{name}-3"), self._generate(name, 4, f"{name}-4")
                )

    def test_cohort_statuses_are_balanced(self):
        statuses = [s for _, s in workloads.cohort_cases(5).values()]
        self.assertEqual(statuses[0], "full")
        for status in workloads.COHORT_STATUSES:
            self.assertEqual(statuses.count(status), workloads.COHORT_CASES // 4)


class ChecksCatchOneVoxel(Scratch):
    def _finals(self, wl, arrays: dict[str, np.ndarray]) -> Path:
        work = self.tmp / "work"
        shutil.rmtree(work, ignore_errors=True)
        (work / "final").mkdir(parents=True)
        for cid, arr in arrays.items():
            save(arr, (1.0, 1.0, 1.0), work / "final" / f"{cid}.nii.gz")
        return work

    def _corrupt(self, arrays, cid, where):
        bad = {k: v.copy() for k, v in arrays.items()}
        bad[cid][where] = (bad[cid][where] + 1) % (workloads.TUMOR + 1)
        return bad

    def test_cohort_voxel_and_dsc_trajectory(self):
        wl = workloads.make_cohort(self.tmp / "in", 0)
        (held_out,) = wl.held_out
        work = self._finals(wl, wl.expected)
        history = [{"eval": {"mean_dsc": v}} for v in workloads.COHORT_DSC]
        (work / "report.json").write_text(json.dumps({"history": history}))
        self.assertEqual(checks.failed_cases(wl, work), [])

        work = self._finals(wl, self._corrupt(wl.expected, "c0003", (0, 0, 0)))
        (work / "report.json").write_text(json.dumps({"history": history}))
        self.assertEqual(checks.failed_cases(wl, work), ["c0003"])

        work = self._finals(wl, wl.expected)
        history[0]["eval"]["mean_dsc"] = 0.5
        (work / "report.json").write_text(json.dumps({"history": history}))
        self.assertEqual(checks.failed_cases(wl, work), [held_out])

    def test_ct_fixed_voxel(self):
        wl = workloads.make_ct(self.tmp / "in", 1)
        self.assertEqual(checks.failed_cases(wl, self._finals(wl, wl.expected)), [])
        fixed = np.argwhere(wl.fixed["ct_1"] & (wl.expected["ct_1"] > 0))[0]
        bad = self._corrupt(wl.expected, "ct_1", tuple(fixed))
        self.assertEqual(checks.failed_cases(wl, self._finals(wl, bad)), ["ct_1"])

    def test_ct_digest_catches_unfixed_voxel(self):
        wl = workloads.make_ct(self.tmp / "in", 1)
        wl.digests = {cid: checks.array_digest(a) for cid, a in wl.expected.items()}
        loose = tuple(np.argwhere(~wl.fixed["ct_1"])[0])
        bad = self._corrupt(wl.expected, "ct_1", loose)
        self.assertEqual(checks.failed_cases(wl, self._finals(wl, bad)), ["ct_1"])

    def test_missing_final_fails(self):
        wl = workloads.make_cohort(self.tmp / "in", 0)
        wl.dsc_trajectory = None
        work = self._finals(wl, {k: v for k, v in wl.expected.items() if k != "c0002"})
        self.assertEqual(checks.failed_cases(wl, work), ["c0002"])


class NiftiRoundTrip(Scratch):
    def test_dtypes(self):
        rng = np.random.default_rng(0)
        for dtype in (np.uint8, np.int16, np.uint16, np.float32):
            data = (rng.random((5, 4, 3)) * 100).astype(dtype)
            save(data, (0.8, 0.8, 2.5), self.tmp / "v.nii.gz")
            got = load(self.tmp / "v.nii.gz")
            self.assertEqual(got.dtype, data.dtype)
            np.testing.assert_array_equal(got, data)


class SpanTree(unittest.TestCase):
    def test_self_times_sum_to_root(self):
        child = [
            ["voxseg", 1.0, 9.0, None],
            ["import", 1.0, 1.5, 0],
            ["pipeline", 2.0, 8.5, 0],
            ["nifti.load", 2.1, 2.3, 2],
            ["state.write", 7.0, 7.2, 2],
        ]
        tree = layers.build_tree((0.5, 9.25), child, [(3.0, 6.0)])
        self.assertEqual(tree[-1][3], 3)  # the segmenter ran inside the pipeline span
        got = layers.layer_metrics(tree, {"nifti.load.mb": 4.0})
        self.assertAlmostEqual(sum(got[m] for m in layers.SELF_TIME_METRICS), 8.75)
        self.assertAlmostEqual(got["pipeline.self_s"], 6.5 - 0.2 - 3.0 - 0.2)
        self.assertAlmostEqual(got["process.self_s"], 0.5 + 0.25 + 0.5 + 0.5)
        self.assertEqual(got["segmenter.calls"], 1)
        self.assertEqual(got["nifti.load_mb"], 4.0)


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_runner(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.GENERATORS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, {k: run.UNITS[k] for k in per_layer})
        self.assertEqual(set(per_layer), set(run.UNITS) - set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
