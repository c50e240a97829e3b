import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.metrics import (
    ORGAN_AVERAGE_KEY,
    ClassScore,
    MetricReport,
    NsdParams,
    aggregate_cohort,
    dsc,
    edt,
    evaluate_case,
    nsd,
    surface_voxels,
    write_cohort_csv,
    write_cohort_json,
)
from voxseg.volume import Spacing, Volume

from conftest import oracle_masks, rand_spacing, vol
from oracles import dsc_ref, edt_ref, nsd_ref, surface_ref


def test_dsc_conventions():
    empty = np.zeros((3, 3, 3), dtype=bool)
    full = np.ones((3, 3, 3), dtype=bool)
    assert dsc(empty, empty) == 1.0
    assert dsc(full, empty) == 0.0
    assert dsc(empty, full) == 0.0
    assert dsc(full, full) == 1.0


def test_dsc_half_overlap():
    a = np.zeros((4, 1, 1), dtype=bool)
    b = np.zeros((4, 1, 1), dtype=bool)
    a[:2] = True
    b[1:3] = True
    # |A|=|B|=2, intersection 1 -> 2*1/4
    assert dsc(a, b) == 0.5


def test_dsc_rejects_shape_mismatch_and_nonbinary():
    with pytest.raises(VoxsegError, match="dim mismatch"):
        dsc(np.zeros((2, 2, 2), dtype=bool), np.zeros((3, 2, 2), dtype=bool))
    with pytest.raises(VoxsegError, match="binary"):
        dsc(np.full((2, 2, 2), 2, dtype=np.uint8), np.zeros((2, 2, 2), dtype=bool))


def test_edt_single_seed_anisotropic():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0, 0, 0] = True
    sp = Spacing(1.0, 2.0, 3.0)
    out = edt(mask, sp)
    assert out[0, 0, 0] == 0.0
    assert abs(out[1, 0, 0] - 1.0) < 1e-12
    assert abs(out[0, 1, 0] - 2.0) < 1e-12
    assert abs(out[0, 0, 1] - 3.0) < 1e-12
    assert abs(out[2, 2, 2] - np.sqrt(4 + 16 + 36)) < 1e-9


def test_edt_empty_mask_is_inf():
    out = edt(np.zeros((2, 2, 2), dtype=bool), Spacing(1, 1, 1))
    assert np.isinf(out).all()


def test_edt_foreground_is_zero():
    rng = np.random.default_rng(5)
    mask = rng.random((5, 5, 5)) < 0.3
    mask[0, 0, 0] = True
    out = edt(mask, Spacing(0.7, 1.3, 2.1))
    assert (out[mask] == 0.0).all()
    assert (out[~mask] > 0.0).all()


def test_edt_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    for mask in oracle_masks(rng, 30, 0.05, 0.5):
        sp = rand_spacing(rng)
        got = edt(mask, sp)
        want = edt_ref(mask, sp.as_tuple())
        if not mask.any():
            assert np.isinf(got).all()
            continue
        assert np.abs(got - want).max() < 1e-9


def test_surface_voxels_solid_block():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    surf = surface_voxels(mask)
    # 3x3x3 block: all but the center voxel are on the surface
    assert surf.sum() == 26
    assert not surf[2, 2, 2]


def test_surface_voxels_grid_boundary_counts_as_background():
    mask = np.ones((3, 3, 3), dtype=bool)
    surf = surface_voxels(mask)
    assert surf.sum() == 26
    assert not surf[1, 1, 1]


def test_surface_voxels_match_oracle():
    rng = np.random.default_rng(7)
    for mask in oracle_masks(rng, 40, 0.1, 0.9):
        assert np.array_equal(surface_voxels(mask), surface_ref(mask))


def test_nsd_conventions_and_identity():
    empty = np.zeros((3, 3, 3), dtype=bool)
    ball = np.zeros((3, 3, 3), dtype=bool)
    ball[1, 1, 1] = True
    sp = Spacing(1, 1, 1)
    assert nsd(empty, empty, sp) == 1.0
    assert nsd(ball, empty, sp) == 0.0
    assert nsd(empty, ball, sp) == 0.0
    assert nsd(ball, ball, sp) == 1.0


def test_nsd_tau_controls_tolerance():
    a = np.zeros((5, 1, 1), dtype=bool)
    b = np.zeros((5, 1, 1), dtype=bool)
    a[0] = True
    b[2] = True  # surfaces 2 mm apart at unit spacing
    sp = Spacing(1, 1, 1)
    assert nsd(a, b, sp, NsdParams(tau=1.0)) == 0.0
    assert nsd(a, b, sp, NsdParams(tau=2.0)) == 1.0


def test_nsd_params_validation():
    with pytest.raises(VoxsegError):
        NsdParams(tau=0.0)
    with pytest.raises(VoxsegError):
        NsdParams(tau=-1.0)


def test_nsd_matches_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(30):
        pred = rng.random((6, 6, 6)) < rng.uniform(0.1, 0.5)
        gt = rng.random((6, 6, 6)) < rng.uniform(0.1, 0.5)
        sp = rand_spacing(rng)
        tau = float(rng.uniform(0.5, 3.0))
        got = nsd(pred, gt, sp, NsdParams(tau=tau))
        want = nsd_ref(pred, gt, sp.as_tuple(), tau)
        assert got == want


def test_evaluate_case_two_class():
    data_p = np.zeros((4, 4, 4), dtype=np.uint8)
    data_g = np.zeros((4, 4, 4), dtype=np.uint8)
    data_p[:2] = 1
    data_g[:2] = 1
    data_p[3, 3, 3] = 14
    report = evaluate_case(vol(data_p), vol(data_g), case_id="t")
    assert report.case_id == "t"
    assert report.per_class[1].dsc == 1.0
    assert report.per_class[1].gt_present and report.per_class[1].pred_present
    # tumor predicted but absent from gt
    assert report.per_class[14].dsc == 0.0
    assert report.per_class[14].informative
    # absent-everywhere classes score 1.0 and are non-informative
    assert report.per_class[2].dsc == 1.0
    assert not report.per_class[2].informative


def test_evaluate_case_rejects_grid_mismatch():
    a = vol(np.zeros((2, 2, 2), dtype=np.uint8))
    b = Volume(np.zeros((2, 2, 2), dtype=np.uint8), Spacing(2, 1, 1))
    with pytest.raises(VoxsegError, match="spacing mismatch"):
        evaluate_case(a, b)
    c = vol(np.zeros((3, 2, 2), dtype=np.uint8))
    with pytest.raises(VoxsegError, match="dim mismatch"):
        evaluate_case(a, c)


def test_organ_average_skips_uninformative_and_tumor():
    report = MetricReport(
        "x",
        {
            1: ClassScore(0.5, 0.5, True, True),
            2: ClassScore(1.0, 1.0, False, False),  # absent: excluded
            14: ClassScore(0.0, 0.0, True, False),  # tumor: excluded
        },
    )
    assert report.organ_average_dsc == 0.5
    assert report.organ_average_nsd == 0.5
    assert report.mean_dsc() == 0.25  # informative classes: 1 and 14


def test_aggregate_cohort_stats():
    r1 = MetricReport("a", {1: ClassScore(1.0, 1.0, True, True)})
    r2 = MetricReport("b", {1: ClassScore(0.0, 0.0, True, True)})
    summary = aggregate_cohort([r1, r2])
    assert summary["n_cases"] == 2
    row = summary["per_class"]["Liver"]
    assert row["dsc_mean"] == 0.5
    assert row["dsc_std"] == 0.5  # population std of {0, 1}
    assert ORGAN_AVERAGE_KEY in summary["per_class"]
    assert summary["mean_dsc"] == 0.5
    with pytest.raises(VoxsegError):
        aggregate_cohort([])


def test_cohort_csv_and_json_roundtrip(tmp_path):
    r = MetricReport(
        "a",
        {
            1: ClassScore(0.75, 0.5, True, True),
            14: ClassScore(0.25, 0.1, True, True),
        },
    )
    summary = aggregate_cohort([r])
    csv_path = tmp_path / "cohort.csv"
    write_cohort_csv(summary, csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "dsc_mean", "dsc_std", "nsd_mean", "nsd_std"]
    names = [r[0] for r in rows[1:]]
    assert names == ["Liver", "Tumor", ORGAN_AVERAGE_KEY]
    liver = rows[1]
    assert liver[1] == "0.750000"

    json_path = tmp_path / "cohort.json"
    write_cohort_json(summary, json_path)
    back = json.loads(json_path.read_text())
    assert back["per_class"]["Liver"]["dsc_mean"] == 0.75


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dsc_symmetry_and_bounds(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((4, 4, 4)) < 0.5
    b = rng.random((4, 4, 4)) < 0.5
    d = dsc(a, b)
    assert d == dsc(b, a)
    assert 0.0 <= d <= 1.0
    assert d == dsc_ref(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nsd_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((4, 4, 4)) < 0.4
    b = rng.random((4, 4, 4)) < 0.4
    sp = Spacing(1.0, 1.5, 2.0)
    assert nsd(a, b, sp) == nsd(b, a, sp)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_edt_triangle_inequality_with_masks(seed):
    # distance to a superset is never larger
    rng = np.random.default_rng(seed)
    small = rng.random((4, 4, 4)) < 0.2
    extra = rng.random((4, 4, 4)) < 0.2
    big = small | extra
    if not small.any() or not big.any():
        return
    sp = Spacing(1, 1, 1)
    assert (edt(big, sp) <= edt(small, sp) + 1e-12).all()
