import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.volume import (
    CLASS_NAMES,
    FOREGROUND_CLASSES,
    ORGAN_CLASSES,
    TUMOR_CLASS,
    ProbMap,
    Spacing,
    Volume,
    check_labelmap,
    check_same_grid,
    labelmap_like,
)


def test_class_taxonomy():
    assert ORGAN_CLASSES == tuple(range(1, 14))
    assert TUMOR_CLASS == 14
    assert len(CLASS_NAMES) == 15
    assert CLASS_NAMES[1] == "Liver"
    assert CLASS_NAMES[2] == "Right Kidney"
    assert CLASS_NAMES[13] == "Left kidney"
    assert CLASS_NAMES[14] == "Tumor"
    assert FOREGROUND_CLASSES == tuple(range(1, 15))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_spacing_rejects_nonpositive(bad):
    with pytest.raises(VoxsegError):
        Spacing(1.0, bad, 1.0)


def test_spacing_close_to():
    a = Spacing(1.0, 1.0, 2.5)
    assert a.close_to(Spacing(1.0 + 5e-7, 1.0, 2.5))
    assert not a.close_to(Spacing(1.1, 1.0, 2.5))
    assert a.as_tuple() == (1.0, 1.0, 2.5)


def test_volume_requires_3d():
    with pytest.raises(VoxsegError):
        Volume(np.zeros((2, 2)), Spacing(1, 1, 1))
    with pytest.raises(VoxsegError):
        Volume(np.zeros((2, 0, 2)), Spacing(1, 1, 1))


def test_volume_accessors():
    v = Volume(np.zeros((2, 3, 4), dtype=np.int16), Spacing(1, 1, 2))
    assert v.dims == (2, 3, 4)
    w = v.with_data(np.ones((2, 3, 4), dtype=np.int16))
    assert w.spacing == v.spacing and w.data.max() == 1


def test_check_same_grid():
    a = Volume(np.zeros((2, 3, 4), dtype=np.uint8), Spacing(1, 1, 2))
    near = Volume(np.ones((2, 3, 4), dtype=np.uint8), Spacing(1, 1, 2 + 5e-7))
    check_same_grid([("a", a), ("near", near)])
    with pytest.raises(VoxsegError, match=r"dim mismatch: a \(2, 3, 4\) vs b \(2, 3, 5\)"):
        check_same_grid([("a", a), ("b", Volume(np.zeros((2, 3, 5)), Spacing(1, 1, 2)))])
    with pytest.raises(VoxsegError, match="spacing mismatch: a .* vs c "):
        check_same_grid([("a", a), ("near", near), ("c", Volume(a.data, Spacing(1, 1, 2.5)))])


def test_check_labelmap():
    good = Volume(np.full((2, 2, 2), 14, dtype=np.uint8), Spacing(1, 1, 1))
    assert check_labelmap(good) is good
    with pytest.raises(VoxsegError):
        check_labelmap(good.with_data(good.data.astype(np.int16)))
    with pytest.raises(VoxsegError):
        check_labelmap(good.with_data(np.full((2, 2, 2), 15, dtype=np.uint8)))


def test_labelmap_like_casts_and_validates():
    base = Volume(np.zeros((2, 2, 2), dtype=np.float32), Spacing(1, 2, 3))
    out = labelmap_like(np.ones((2, 2, 2), dtype=np.int64), base)
    assert out.data.dtype == np.uint8 and out.spacing == base.spacing


def test_probmap_validation():
    probs = np.zeros((2, 2, 2, 2), dtype=np.float32)
    probs[0] = 1.0
    pm = ProbMap(probs, (0, 14), Spacing(1, 1, 1))
    assert pm.dims == (2, 2, 2)
    with pytest.raises(VoxsegError):
        ProbMap(probs, (14, 0), Spacing(1, 1, 1))  # not ascending
    with pytest.raises(VoxsegError):
        ProbMap(probs, (1, 14), Spacing(1, 1, 1))  # background missing
    with pytest.raises(VoxsegError):
        ProbMap(probs, (0,), Spacing(1, 1, 1))  # channel count mismatch


@given(
    st.tuples(
        st.floats(0.1, 10, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
)
def test_spacing_roundtrip(tup):
    assert Spacing(*tup).as_tuple() == tup
