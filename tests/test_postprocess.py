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


def test_keep_largest_agrees_with_oracle_randomized():
    rng = np.random.default_rng(99)
    for _ in range(40):
        data = (rng.random((6, 6, 6)) < 0.35).astype(np.uint8) * 3
        for conn in (6, 26):
            got = keep_largest(vol(data), classes=(3,), connectivity=conn)
            labels, sizes = components_ref(data == 3, conn)
            want = data.copy()
            if sizes:
                keep_id = int(np.argmax(sizes)) + 1
                want[(data == 3) & (labels != keep_id)] = 0
            assert np.array_equal(got.data, want)


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
