import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.tta import (
    FlipSpec,
    aggregate,
    apply_flip,
    apply_flip_prob,
    argmax_labels,
    enumerate_flips,
    flip_array,
)
from voxseg.volume import ProbMap, Spacing, Volume

from oracles import flip_ref


def _rand_prob(rng, dims=(4, 5, 6), classes=(0, 1, 14)):
    raw = rng.random((len(classes),) + dims)
    probs = (raw / raw.sum(axis=0)).astype(np.float32)
    return ProbMap(probs, tuple(classes), Spacing(1, 1, 2.5))


def test_enumerate_flips_order_and_tags():
    flips = enumerate_flips()
    assert len(flips) == 8
    assert flips[0] == FlipSpec(False, False, False)
    assert flips[7] == FlipSpec(True, True, True)
    # tag is a 3-bit (x, y, z) counter matching enumeration order
    assert [f.tag for f in flips] == list(range(8))
    assert FlipSpec(True, False, True).tag == 0b101


def test_flip_is_involution():
    rng = np.random.default_rng(0)
    vol = Volume(rng.normal(size=(3, 4, 5)).astype(np.float32), Spacing(1, 1, 1))
    for spec in enumerate_flips():
        twice = apply_flip(apply_flip(vol, spec), spec)
        assert np.array_equal(twice.data, vol.data)


def test_flip_axes_property():
    cube = np.arange(24).reshape((2, 3, 4))
    assert np.array_equal(flip_ref(cube, FlipSpec()), cube)
    assert np.array_equal(flip_ref(cube, FlipSpec(flip_y=True)), cube[:, ::-1])
    assert np.array_equal(flip_ref(cube, FlipSpec(True, True, True)), cube[::-1, ::-1, ::-1])
    data = np.arange(8).reshape((2, 2, 2))
    assert np.array_equal(flip_array(data, FlipSpec(flip_x=True)), data[::-1])
    probs = np.arange(48).reshape((2, 2, 3, 4))
    for spec in enumerate_flips():
        assert np.array_equal(cube[spec.reverse], flip_ref(cube, spec))
        # a class-first map flips its three grid axes, never the class axis
        assert np.array_equal(flip_array(probs, spec), flip_ref(probs, spec))
    # identity flip still returns a copy, not a view
    out = flip_array(data, FlipSpec())
    out[0, 0, 0] = 99
    assert data[0, 0, 0] == 0


def test_aggregate_of_consistently_flipped_outputs_reconstructs_base():
    rng = np.random.default_rng(1)
    base = _rand_prob(rng)
    entries = [(spec, apply_flip_prob(base, spec)) for spec in enumerate_flips()]
    out = aggregate(entries)
    assert np.abs(out.probs - base.probs).max() < 1e-6
    assert np.abs(out.probs.sum(axis=0) - 1).max() < 1e-4


def test_aggregate_single_entry_identity():
    rng = np.random.default_rng(2)
    base = _rand_prob(rng)
    out = aggregate([(FlipSpec(), base)])
    assert np.abs(out.probs - base.probs).max() < 1e-6


def test_aggregate_averages_distinct_maps():
    dims = (2, 2, 2)
    a = ProbMap(
        np.stack([np.ones(dims), np.zeros(dims)]).astype(np.float32),
        (0, 14),
        Spacing(1, 1, 1),
    )
    b = ProbMap(
        np.stack([np.zeros(dims), np.ones(dims)]).astype(np.float32),
        (0, 14),
        Spacing(1, 1, 1),
    )
    out = aggregate([(FlipSpec(), a), (FlipSpec(), b)])
    assert np.allclose(out.probs, 0.5)


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(VoxsegError):
        aggregate([])
    rng = np.random.default_rng(3)
    a = _rand_prob(rng, dims=(2, 2, 2))
    b = _rand_prob(rng, dims=(3, 2, 2))
    with pytest.raises(VoxsegError, match="mismatched"):
        aggregate([(FlipSpec(), a), (FlipSpec(), b)])
    c = _rand_prob(rng, dims=(2, 2, 2), classes=(0, 1))
    with pytest.raises(VoxsegError, match="mismatched"):
        aggregate([(FlipSpec(), a), (FlipSpec(), c)])


def _fortran_channels(probs: np.ndarray) -> np.ndarray:
    """``probs`` copied into a (C, nx, ny, nz) buffer whose channels are x-fastest."""
    out = np.empty(probs.shape[:1] + probs.shape[:0:-1], dtype=probs.dtype).transpose(0, 3, 2, 1)
    out[...] = probs
    return out


def test_aggregate_streams_bit_identical_to_list_and_reference():
    rng = np.random.default_rng(4)
    classes = tuple(range(15))
    entries = []
    for spec in enumerate_flips():
        raw = rng.random((len(classes), 6, 5, 4)).astype(np.float32)
        raw[:, :2] = np.round(raw[:, :2] * 4) / 4  # exact ties across channels
        entries.append((spec, ProbMap(raw, classes, Spacing(1, 1, 2.5))))
    # the float64 mean of the unflipped maps, added in flip order
    ref = np.zeros(entries[0][1].probs.shape, dtype=np.float64)
    for spec, prob in entries:
        ref += flip_ref(prob.probs, spec)
    ref /= len(entries)

    listed = aggregate(entries)
    streamed = aggregate(
        (spec, ProbMap(_fortran_channels(p.probs), p.classes, p.spacing)) for spec, p in entries
    )
    for out in (listed, streamed):
        assert out.classes == classes
        assert np.array_equal(out.probs.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(argmax_labels(streamed).data, argmax_labels(listed).data)


def test_aggregate_mismatch_mid_stream():
    rng = np.random.default_rng(5)
    good = [(spec, _rand_prob(rng, dims=(2, 3, 4))) for spec in enumerate_flips()[:3]]
    for bad in (_rand_prob(rng, dims=(2, 3, 5)), _rand_prob(rng, dims=(2, 3, 4), classes=(0, 1))):
        stream = iter(good[:2] + [(FlipSpec(), bad)] + good[2:])
        with pytest.raises(VoxsegError, match="mismatched"):
            aggregate(stream)
    with pytest.raises(VoxsegError, match="at least one entry"):
        aggregate(iter([]))


@pytest.mark.parametrize("order", ["C", "F"])
def test_argmax_matches_numpy_argmax(order):
    rng = np.random.default_rng(6)
    classes = (0, 2, 5, 9, 14)
    probs = np.round(rng.random((len(classes), 5, 4, 3)) * 3).astype(np.float32) / 3
    if order == "F":
        probs = _fortran_channels(probs)
    out = argmax_labels(ProbMap(probs, classes, Spacing(1, 1, 1)))
    want = np.asarray(classes, dtype=np.uint8)[np.argmax(probs, axis=0)]
    assert np.array_equal(out.data, want)
    assert out.data.flags.f_contiguous == (order == "F")


def test_flip_array_keeps_layout():
    data = np.asfortranarray(np.arange(24, dtype=np.int16).reshape((2, 3, 4)))
    for spec in enumerate_flips():
        out = flip_array(data, spec)
        assert out.flags.f_contiguous
        assert np.array_equal(out, flip_ref(data, spec))


def test_argmax_maps_channel_to_class_id():
    dims = (1, 1, 3)
    probs = np.zeros((3,) + dims, dtype=np.float32)
    probs[0, 0, 0, 0] = 1.0  # background
    probs[1, 0, 0, 1] = 1.0  # class 5
    probs[2, 0, 0, 2] = 1.0  # class 14
    pm = ProbMap(probs, (0, 5, 14), Spacing(1, 1, 1))
    out = argmax_labels(pm)
    assert out.data.ravel().tolist() == [0, 5, 14]
    assert out.data.dtype == np.uint8


def test_argmax_tie_takes_lowest_class():
    dims = (1, 1, 1)
    probs = np.full((3,) + dims, 1 / 3, dtype=np.float32)
    pm = ProbMap(probs, (0, 5, 14), Spacing(1, 1, 1))
    assert argmax_labels(pm).data.ravel()[0] == 0
    probs2 = np.array([0.2, 0.4, 0.4], dtype=np.float32).reshape((3,) + dims)
    pm2 = ProbMap(probs2, (0, 5, 14), Spacing(1, 1, 1))
    assert argmax_labels(pm2).data.ravel()[0] == 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7))
def test_flip_prob_consistency_with_volume_flip(seed, tag):
    rng = np.random.default_rng(seed)
    pm = _rand_prob(rng, dims=(3, 3, 3))
    spec = enumerate_flips()[tag]
    flipped = apply_flip_prob(pm, spec)
    for c in range(pm.probs.shape[0]):
        chan = Volume(pm.probs[c], pm.spacing)
        assert np.array_equal(flipped.probs[c], apply_flip(chan, spec).data)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_aggregate_commutes_with_argmax_under_full_tta(seed):
    # argmax(aggregate(flipped outputs)) == argmax(base) wherever the
    # base winner is clear of float reconstruction error
    rng = np.random.default_rng(seed)
    base = _rand_prob(rng, dims=(3, 3, 3))
    entries = [(spec, apply_flip_prob(base, spec)) for spec in enumerate_flips()]
    got = argmax_labels(aggregate(entries))
    want = argmax_labels(base)
    top2 = np.sort(base.probs, axis=0)[-2:]
    clear = (top2[1] - top2[0]) > 1e-4
    assert np.array_equal(got.data[clear], want.data[clear])
