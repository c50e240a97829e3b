import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.fusion import (
    FusionPolicy,
    PartialLabel,
    majority_vote,
    merge_organ_tumor,
    merge_partial,
)
from voxseg.volume import Spacing, Volume

from conftest import rand_labels, vol
from oracles import vote_ref


def _lab(values, spacing=(1, 1, 1)):
    return Volume(np.asarray(values, dtype=np.uint8), Spacing(*spacing))


def _cube(value, dims=(2, 2, 2)):
    return _lab(np.full(dims, value, dtype=np.uint8))


def test_policy_validation():
    with pytest.raises(VoxsegError):
        FusionPolicy(source_priority=())
    with pytest.raises(VoxsegError):
        FusionPolicy(source_priority=("a", "a"))
    with pytest.raises(VoxsegError):
        FusionPolicy(min_votes=0)
    assert FusionPolicy().min_votes is None


def test_partial_label_rejects_classes_outside_annotated_set():
    with pytest.raises(VoxsegError, match="outside"):
        PartialLabel(_cube(3), annotated_classes=frozenset({1}))
    ok = PartialLabel(_cube(3), annotated_classes=frozenset({1, 3}))
    assert ok.foreground().all()


def test_fusion_errors_name_classes_as_plain_ints():
    with pytest.raises(VoxsegError) as err:
        PartialLabel(_lab([[[1, 0]]]))
    assert str(err.value) == "ground truth contains classes [1] outside its annotated set []"
    with pytest.raises(VoxsegError) as err:
        merge_organ_tumor(_lab([[[1, 0, 0]]]), _lab([[[14, 3, 2]]]))
    assert str(err.value) == "tumor map contains organ classes [2, 3]"


def test_vote_two_source_tie_goes_to_priority():
    # Two sources disagree everywhere: the tie resolves to the source
    # listed first in the priority order.
    policy = FusionPolicy(source_priority=("a", "b"))
    out = majority_vote([("a", _cube(1)), ("b", _cube(2))], policy)
    assert (out.data == 1).all()
    flipped = FusionPolicy(source_priority=("b", "a"))
    out2 = majority_vote([("a", _cube(1)), ("b", _cube(2))], flipped)
    assert (out2.data == 2).all()


def test_vote_priority_source_must_hold_a_tied_class():
    # a says 1, b says 2, c says 2: class 2 wins 2-1 even though a has
    # top priority, because a's vote is not among the winners.
    policy = FusionPolicy(source_priority=("a", "b", "c"))
    out = majority_vote([("a", _cube(1)), ("b", _cube(2)), ("c", _cube(2))], policy)
    assert (out.data == 2).all()


def test_vote_background_counts_as_vote():
    policy = FusionPolicy(source_priority=("a", "b", "c"))
    out = majority_vote([("a", _cube(0)), ("b", _cube(0)), ("c", _cube(5))], policy)
    assert (out.data == 0).all()


def test_vote_min_votes_zeroes_weak_winners():
    policy = FusionPolicy(source_priority=("a", "b", "c"), min_votes=2)
    # 1 vs 2 vs 0: plurality tie between all; priority picks a's 1,
    # but 1 has a single vote < 2, so the voxel drops to background.
    out = majority_vote([("a", _cube(1)), ("b", _cube(2)), ("c", _cube(0))], policy)
    assert (out.data == 0).all()
    # with two agreeing sources the class survives
    out2 = majority_vote([("a", _cube(1)), ("b", _cube(1)), ("c", _cube(0))], policy)
    assert (out2.data == 1).all()


def test_vote_unknown_source_rejected():
    policy = FusionPolicy(source_priority=("a",))
    with pytest.raises(VoxsegError, match="unknown source"):
        majority_vote([("a", _cube(1)), ("x", _cube(2))], policy)


def test_vote_dim_mismatch_rejected():
    policy = FusionPolicy(source_priority=("a", "b"))
    with pytest.raises(VoxsegError, match="dim mismatch"):
        majority_vote([("a", _cube(1)), ("b", _cube(1, dims=(3, 2, 2)))], policy)


def test_vote_single_source_is_identity():
    rng = np.random.default_rng(11)
    data = rand_labels(rng, (5, 5, 5), classes=(0, 1, 14))
    policy = FusionPolicy(source_priority=("own",))
    out = majority_vote([("own", vol(data))], policy)
    assert np.array_equal(out.data, data)


def test_vote_matches_oracle_randomized():
    rng = np.random.default_rng(101)
    names = ("s0", "s1", "s2", "s3")
    for _ in range(60):
        n = int(rng.integers(1, 5))
        srcs = [(names[i], vol(rand_labels(rng, (5, 5, 5), classes=(0, 1, 2, 14)))) for i in range(n)]
        min_votes = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        policy = FusionPolicy(source_priority=names, min_votes=min_votes)
        got = majority_vote(srcs, policy)
        want = vote_ref([(s, v.data) for s, v in srcs], names, min_votes)
        assert np.array_equal(got.data, want)


def test_merge_partial_gt_foreground_wins():
    gt_map = _lab(np.array([[[2, 0]]], dtype=np.uint8))
    gt = PartialLabel(gt_map, annotated_classes=frozenset({2}))
    pseudo = _lab(np.array([[[7, 7]]], dtype=np.uint8))
    out = merge_partial(gt, pseudo, FusionPolicy())
    assert out.data.ravel().tolist() == [2, 7]


def test_merge_partial_background_trust_suppresses_annotated_claims():
    gt_map = _lab(np.array([[[2, 0]]], dtype=np.uint8))
    gt = PartialLabel(gt_map, annotated_classes=frozenset({2, 7}))
    pseudo = _lab(np.array([[[7, 7]]], dtype=np.uint8))
    trusted = merge_partial(gt, pseudo, FusionPolicy(gt_background_trust=True))
    # pseudo claims class 7 where gt (which annotates 7) says background
    assert trusted.data.ravel().tolist() == [2, 0]
    untrusted = merge_partial(gt, pseudo, FusionPolicy(gt_background_trust=False))
    assert untrusted.data.ravel().tolist() == [2, 7]


def test_merge_partial_never_erases_gt_foreground_randomized():
    rng = np.random.default_rng(202)
    for _ in range(40):
        gt_data = rand_labels(rng, (5, 5, 5), classes=(0, 1, 14))
        pseudo = vol(rand_labels(rng, (5, 5, 5), classes=(0, 1, 2, 14)))
        gt = PartialLabel(vol(gt_data), annotated_classes=frozenset({1, 14}))
        trust = bool(rng.integers(0, 2))
        out = merge_partial(gt, pseudo, FusionPolicy(gt_background_trust=trust))
        fg = gt_data != 0
        assert np.array_equal(out.data[fg], gt_data[fg])


def test_merge_organ_tumor_tumor_wins_overlap():
    organ = _lab(np.array([[[1, 1, 0]]], dtype=np.uint8))
    tumor = _lab(np.array([[[14, 0, 14]]], dtype=np.uint8))
    out = merge_organ_tumor(organ, tumor)
    assert out.data.ravel().tolist() == [14, 1, 14]
    kept = merge_organ_tumor(organ, tumor, tumor_overrides_organ=False)
    assert kept.data.ravel().tolist() == [1, 1, 14]


def test_merge_organ_tumor_preserves_tumor_count_exactly():
    rng = np.random.default_rng(303)
    for _ in range(40):
        organ = vol(rand_labels(rng, (6, 6, 6), classes=(0,) + tuple(range(1, 14))))
        tumor = vol(rand_labels(rng, (6, 6, 6), classes=(0, 14)))
        out = merge_organ_tumor(organ, tumor)
        assert (out.data == 14).sum() == (tumor.data == 14).sum()
        assert np.array_equal(out.data == 14, tumor.data == 14)


def test_merge_organ_tumor_input_validation():
    with pytest.raises(VoxsegError, match="tumor class"):
        merge_organ_tumor(_cube(14), _cube(0))
    with pytest.raises(VoxsegError, match="organ classes"):
        merge_organ_tumor(_cube(1), _cube(3))
    with pytest.raises(VoxsegError, match="dim mismatch"):
        merge_organ_tumor(_cube(1), _cube(14, dims=(3, 2, 2)))


def test_every_fusion_rejects_a_spacing_mismatch():
    fine = _lab(np.full((2, 2, 2), 1))
    coarse = _lab(np.full((2, 2, 2), 14), spacing=(3, 3, 3))
    policy = FusionPolicy(source_priority=("own", "ext"))
    with pytest.raises(VoxsegError, match=r"spacing mismatch: own .* vs ext "):
        majority_vote([("own", fine), ("ext", _lab(np.full((2, 2, 2), 1), spacing=(3, 3, 3)))], policy)
    with pytest.raises(VoxsegError, match=r"spacing mismatch: organ .* vs tumor "):
        merge_organ_tumor(fine, coarse)
    with pytest.raises(VoxsegError, match=r"spacing mismatch: gt .* vs pseudo "):
        merge_partial(PartialLabel(coarse, frozenset({14})), fine, policy)
    # within Spacing.close_to is the same grid
    near = _lab(np.full((2, 2, 2), 1), spacing=(1 + 5e-7, 1, 1))
    assert majority_vote([("own", fine), ("ext", near)], policy).spacing == fine.spacing


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_vote_idempotent_on_identical_sources(seed, n_sources):
    rng = np.random.default_rng(seed)
    data = rand_labels(rng, (4, 4, 4), classes=(0, 1, 5, 14))
    names = tuple(f"s{i}" for i in range(n_sources))
    policy = FusionPolicy(source_priority=names)
    out = majority_vote([(nm, vol(data)) for nm in names], policy)
    assert np.array_equal(out.data, data)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vote_output_class_is_someones_vote(seed):
    rng = np.random.default_rng(seed)
    names = ("a", "b", "c")
    srcs = [(nm, vol(rand_labels(rng, (4, 4, 4), classes=(0, 2, 9, 14)))) for nm in names]
    out = majority_vote(srcs, FusionPolicy(source_priority=names))
    stack = np.stack([v.data for _, v in srcs])
    assert ((stack == out.data[None]).any(axis=0)).all()
