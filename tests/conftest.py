import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from voxseg.config import load_config
from voxseg.fixture import make_fixture
from voxseg.manifest import load_manifest
from voxseg.pipeline import run_pipeline
from voxseg.volume import Spacing, Volume


@pytest.fixture(scope="session")
def fixture_dataset(tmp_path_factory):
    """The shipped 6-case synthetic dataset, written once per session."""
    root = tmp_path_factory.mktemp("dataset")
    return make_fixture(root)


@pytest.fixture(scope="session")
def completed_run(fixture_dataset, tmp_path_factory):
    """One full fixture pipeline run, shared by read-only tests."""
    work = tmp_path_factory.mktemp("work")
    manifest = load_manifest(fixture_dataset["manifest"])
    config = load_config(fixture_dataset["config"])
    start = time.perf_counter()
    report = run_pipeline(manifest, config, work)
    elapsed = time.perf_counter() - start
    return {
        "work": work,
        "report": report,
        "manifest": manifest,
        "config": config,
        "dataset": fixture_dataset,
        "elapsed_s": elapsed,
    }


def rand_labels(rng, shape, classes) -> np.ndarray:
    return rng.choice(np.asarray(classes, dtype=np.uint8), size=shape)


def oracle_masks(rng, n, lo, hi, layout_rounds=4):
    """``n`` random 6x6x6 masks of density drawn from U(lo, hi), then
    ``layout_rounds`` rounds of masks in layouts that array kernels can
    get wrong: non-cubic shapes with a singleton axis, Fortran order,
    flipped views and strided slices."""
    for _ in range(n):
        yield rng.random((6, 6, 6)) < rng.uniform(lo, hi)
    for _ in range(layout_rounds):
        p = rng.uniform(lo, hi)
        yield rng.random((1, 5, 7)) < p
        yield rng.random((7, 1, 4)) < p
        yield rng.random((3, 6, 1)) < p
        yield np.asfortranarray(rng.random((4, 7, 5)) < p)
        yield np.flip(rng.random((5, 6, 4)) < p, axis=(0, 2))
        yield (rng.random((8, 6, 8)) < p)[::2, 1:, ::-3]
        yield np.asfortranarray(rng.random((7, 8, 6)) < p)[1::2, ::3]


def rand_spacing(rng) -> Spacing:
    return Spacing(*np.round(rng.uniform(0.4, 4.0, size=3), 3).tolist())


def vol(data, spacing=(1.0, 1.0, 1.0)) -> Volume:
    arr = np.asarray(data)
    sp = spacing if isinstance(spacing, Spacing) else Spacing(*spacing)
    return Volume(arr, sp)
