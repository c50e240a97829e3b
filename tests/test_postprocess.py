import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.postprocess import (
    DEFAULT_CONNECTIVITY,
    DEFAULT_KEEP_LARGEST_CLASSES,
    connected_components,
    keep_largest,
)
from voxseg.volume import ORGAN_CLASSES, Spacing, Volume

from conftest import oracle_masks, vol
from oracles import components_ref


def test_defaults():
    assert DEFAULT_CONNECTIVITY == 26
    assert DEFAULT_KEEP_LARGEST_CLASSES == ORGAN_CLASSES
    assert 14 not in DEFAULT_KEEP_LARGEST_CLASSES


def test_components_empty_mask():
    comp = connected_components(np.zeros((3, 3, 3), dtype=bool))
    assert comp.count == 0
    assert (comp.labels == 0).all()


def test_components_connectivity_distinction():
    # two voxels sharing only a corner: one 26-component, two 6-components
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = True
    mask[1, 1, 1] = True
    assert connected_components(mask, connectivity=26).count == 1
    assert connected_components(mask, connectivity=6).count == 2


def test_components_edge_adjacency():
    # sharing an edge: joined at 26, split at 6
    mask = np.zeros((2, 2, 1), dtype=bool)
    mask[0, 0, 0] = True
    mask[1, 1, 0] = True
    assert connected_components(mask, connectivity=26).count == 1
    assert connected_components(mask, connectivity=6).count == 2


def test_components_first_encounter_numbering():
    # Scan is x-fastest: the component whose first voxel appears earliest
    # in (x, then y, then z) order gets id 1.
    mask = np.zeros((4, 4, 1), dtype=bool)
    mask[3, 0, 0] = True  # first row, x=3
    mask[0, 2, 0] = True  # later row
    comp = connected_components(mask, connectivity=6)
    assert comp.labels[3, 0, 0] == 1
    assert comp.labels[0, 2, 0] == 2
    assert comp.sizes.tolist() == [1, 1]


def test_components_rejects_nonbinary():
    with pytest.raises(VoxsegError, match="binary"):
        connected_components(np.full((2, 2, 2), 3, dtype=np.uint8))
    # 0/1 integer masks are accepted
    ok = connected_components(np.ones((2, 2, 2), dtype=np.uint8))
    assert ok.count == 1


def test_components_rejects_bad_connectivity():
    with pytest.raises(VoxsegError, match="connectivity"):
        connected_components(np.ones((2, 2, 2), dtype=bool), connectivity=18)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(77)
    for mask in oracle_masks(rng, 60, 0.1, 0.6):
        for conn in (6, 26):
            got = connected_components(mask, conn)
            want_labels, want_sizes = components_ref(mask, conn)
            assert np.array_equal(got.labels, want_labels)
            assert got.sizes.tolist() == want_sizes


def test_keep_largest_prunes_smaller_component():
    data = np.zeros((7, 3, 3), dtype=np.uint8)
    data[0:2] = 1  # 18 voxels
    data[5:6] = 1  # 9 voxels, disconnected
    out = keep_largest(vol(data), classes=(1,), connectivity=6)
    assert (out.data[0:2] == 1).all()
    assert (out.data[5:6] == 0).all()


def test_keep_largest_tie_keeps_lowest_component_id():
    data = np.zeros((5, 1, 1), dtype=np.uint8)
    data[0] = 1
    data[4] = 1  # same size, later in scan order
    out = keep_largest(vol(data), classes=(1,), connectivity=6)
    assert out.data.ravel().tolist() == [1, 0, 0, 0, 0]


def test_keep_largest_untouched_classes():
    data = np.zeros((7, 1, 1), dtype=np.uint8)
    data[0] = 14
    data[3] = 14
    data[5] = 1
    out = keep_largest(vol(data), classes=DEFAULT_KEEP_LARGEST_CLASSES, connectivity=6)
    # tumor (14) not listed: both fragments survive
    assert (out.data == 14).sum() == 2
    assert (out.data == 1).sum() == 1


def test_keep_largest_does_not_touch_other_labels():
    data = np.zeros((5, 1, 1), dtype=np.uint8)
    data[0] = 1
    data[2] = 2
    data[4] = 1
    out = keep_largest(vol(data), classes=(1,), connectivity=6)
    assert (out.data == 2).sum() == 1


def test_keep_largest_idempotent_randomized():
    rng = np.random.default_rng(88)
    for _ in range(40):
        data = (rng.random((6, 6, 6)) < 0.4).astype(np.uint8)
        data[rng.random((6, 6, 6)) < 0.1] = 14
        for conn in (6, 26):
            once = keep_largest(vol(data), classes=(1, 14), connectivity=conn)
            twice = keep_largest(once, classes=(1, 14), connectivity=conn)
            assert np.array_equal(once.data, twice.data)


def _keep_largest_ref(data, classes, conn):
    """``keep_largest`` on the whole volume: flood-fill each listed class
    and zero every component but the largest (lowest id on ties)."""
    want = data.copy()
    for c in set(classes):
        labels, sizes = components_ref(data == c, conn)
        if sizes:
            want[(data == c) & (labels != int(np.argmax(sizes)) + 1)] = 0
    return want


def test_keep_largest_agrees_with_oracle_randomized():
    rng = np.random.default_rng(99)
    for _ in range(40):
        data = (rng.random((6, 6, 6)) < 0.35).astype(np.uint8) * 3
        for conn in (6, 26):
            got = keep_largest(vol(data), classes=(3,), connectivity=conn)
            assert np.array_equal(got.data, _keep_largest_ref(data, (3,), conn))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([6, 26]))
def test_keep_largest_output_is_subset(seed, conn):
    rng = np.random.default_rng(seed)
    data = (rng.random((5, 5, 5)) < 0.5).astype(np.uint8) * 7
    out = keep_largest(vol(data), classes=(7,), connectivity=conn)
    # never adds voxels, never changes surviving values
    changed = out.data != data
    assert (out.data[changed] == 0).all()
    kept = out.data == 7
    if kept.any():
        assert connected_components(kept, conn).count == 1


def _boxed_classes(rng, shape):
    """A label map whose classes each sit in their own random sub-box,
    sparse enough to break into several components."""
    data = np.zeros(shape, dtype=np.uint8)
    for c in rng.choice(np.arange(1, 15), rng.integers(1, 5), replace=False):
        lo = [int(rng.integers(0, n)) for n in shape]
        hi = [int(rng.integers(a, n)) + 1 for a, n in zip(lo, shape)]
        box = data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
        box[rng.random(box.shape) < rng.uniform(0.15, 0.6)] = c
    return data


def test_keep_largest_in_boxes_matches_the_whole_volume_oracle():
    rng = np.random.default_rng(2024)
    for i in range(30):
        data = _boxed_classes(rng, (7, 6, 5))
        if i % 2:
            data = np.asfortranarray(data)
        # listed classes include ones absent from the map, and background
        classes = tuple(int(c) for c in rng.choice(np.arange(0, 15), 6))
        for conn in (6, 26):
            got = keep_largest(vol(data), classes, conn)
            assert np.array_equal(got.data, _keep_largest_ref(data, classes, conn)), (i, conn)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("conn", [6, 26])
def test_keep_largest_tie_inside_an_offset_box(order, conn):
    # class 5's box starts at (2, 1, 3); its two equal components tie, and
    # the one first in x-fastest scan order inside the box (and the volume)
    # survives, while class 2 in another box is pruned on its own
    data = np.zeros((8, 5, 6), dtype=np.uint8)
    data[4, 3, 3] = data[5, 3, 3] = 5
    data[2, 1, 5] = data[3, 1, 5] = 5
    data[0, 0, 0] = data[0, 4, 0] = data[1, 4, 0] = 2
    data = np.asarray(data, order=order)
    got = keep_largest(vol(data), classes=(5, 2, 9), connectivity=conn)
    assert np.array_equal(got.data, _keep_largest_ref(data, (5, 2, 9), conn))
    assert got.data[4, 3, 3] == 5 and got.data[2, 1, 5] == 0
    assert got.data[0, 0, 0] == 0 and got.data[0, 4, 0] == 2
