import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.preprocess import (
    DEFAULT_CLIP_HI,
    DEFAULT_CLIP_LO,
    DEFAULT_MEAN,
    DEFAULT_STD,
    clip_normalize,
)
from voxseg.volume import Spacing, Volume


def _vol(data):
    return Volume(np.asarray(data), Spacing(1, 1, 1))


def test_default_constants():
    assert (DEFAULT_CLIP_LO, DEFAULT_CLIP_HI) == (-970.0, 279.0)
    assert (DEFAULT_MEAN, DEFAULT_STD) == (80.3, 141.4)


def test_clip_normalize_frozen_values():
    # Reference values computed by hand from the published constants:
    # (clip(x, -970, 279) - 80.3) / 141.4
    data = np.array([-2000.0, 80.3, 279.0], dtype=np.float32).reshape((3, 1, 1))
    out = clip_normalize(_vol(data)).data.ravel()
    assert out.dtype == np.float32
    assert abs(out[0] - (-7.427864214992927)) < 1e-6
    assert abs(out[1] - 0.0) < 1e-6
    assert abs(out[2] - 1.4052333804809052) < 1e-6


def test_clip_normalize_clamps_above():
    data = np.array([5000.0], dtype=np.float32).reshape((1, 1, 1))
    hi = clip_normalize(_vol(data)).data.ravel()[0]
    top = clip_normalize(_vol(np.array([[[279.0]]], dtype=np.float32))).data.ravel()[0]
    assert hi == top


@settings(max_examples=30, deadline=None)
@given(st.floats(-3000, 3000, allow_nan=False, width=32))
def test_clip_normalize_range_property(x):
    out = clip_normalize(_vol(np.array([[[x]]], dtype=np.float32))).data.ravel()[0]
    lo = (DEFAULT_CLIP_LO - DEFAULT_MEAN) / DEFAULT_STD
    hi = (DEFAULT_CLIP_HI - DEFAULT_MEAN) / DEFAULT_STD
    assert lo - 1e-6 <= out <= hi + 1e-6
