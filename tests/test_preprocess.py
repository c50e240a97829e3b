import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.errors import VoxsegError
from voxseg.preprocess import (
    DEFAULT_CLIP_HI,
    DEFAULT_CLIP_LO,
    DEFAULT_MEAN,
    DEFAULT_STD,
    NormalizationParams,
    clip_normalize,
    median_spacing,
    resample_image,
    resample_labels,
)
from voxseg.volume import Spacing, Volume

from oracles import nearest_ref, output_dims_ref, sample_coords_ref, trilinear_ref


def _vol(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data), Spacing(*spacing))


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


def test_normalization_params_validation():
    with pytest.raises(VoxsegError):
        NormalizationParams(clip_lo=10.0, clip_hi=-10.0)
    with pytest.raises(VoxsegError):
        NormalizationParams(std=0.0)


def test_sample_coords_halving_spacing():
    # 4 voxels at 1.0 mm resampled to 0.5 mm -> 8 output voxels at
    # coords 0.0 (clamped from -0.25), 0.25, 0.75, ..., 2.75, 3.0.
    from voxseg.preprocess import _output_dims, _sample_coords

    assert _output_dims((4, 4, 4), Spacing(1, 1, 1), Spacing(0.5, 0.5, 0.5)) == (8, 8, 8)
    coords = _sample_coords(8, 4, 1.0, 0.5)
    expected = [0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.0]
    assert np.allclose(coords, expected)


def test_output_dims_round_half_up():
    from voxseg.preprocess import _output_dims

    # 5 voxels at 1.0 -> 2.0 gives 5/2 + 0.5 = 3.0 -> 3
    assert _output_dims((5, 5, 5), Spacing(1, 1, 1), Spacing(2, 2, 2)) == (3, 3, 3)
    # 3 voxels at 1.0 -> 9.0 clamps to 1
    assert _output_dims((3, 3, 3), Spacing(1, 1, 1), Spacing(9, 9, 9)) == (1, 1, 1)


def test_resample_identity_spacing_is_noop():
    rng = np.random.default_rng(0)
    vol = _vol(rng.normal(size=(5, 6, 7)).astype(np.float32), (1.2, 0.8, 2.5))
    out = resample_image(vol, vol.spacing)
    assert out.dims == vol.dims
    assert np.allclose(out.data, vol.data, atol=1e-6)


def test_resample_constant_volume_stays_constant():
    vol = _vol(np.full((4, 5, 6), 3.25, dtype=np.float32), (1.0, 1.0, 2.0))
    out = resample_image(vol, Spacing(0.7, 1.3, 0.9))
    assert np.allclose(out.data, 3.25, atol=1e-6)


def _oracle_coords(dims, old, target):
    out_dims = output_dims_ref(dims, old.as_tuple(), target.as_tuple())
    return [
        sample_coords_ref(n_out, n_in, o, t)
        for n_out, n_in, o, t in zip(out_dims, dims, old.as_tuple(), target.as_tuple())
    ]


def test_resample_matches_trilinear_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        dims = tuple(int(n) for n in rng.integers(2, 7, size=3))
        old = Spacing(*np.round(rng.uniform(0.5, 3.0, size=3), 3))
        target = Spacing(*np.round(rng.uniform(0.5, 3.0, size=3), 3))
        vol = Volume(rng.normal(size=dims).astype(np.float32), old)
        got = resample_image(vol, target)
        assert got.dims == output_dims_ref(dims, old.as_tuple(), target.as_tuple())
        want = trilinear_ref(vol.data, *_oracle_coords(dims, old, target))
        assert np.allclose(got.data, want, atol=1e-5)


def test_resample_labels_matches_nearest_oracle():
    rng = np.random.default_rng(43)
    for _ in range(10):
        dims = tuple(int(n) for n in rng.integers(2, 7, size=3))
        old = Spacing(*np.round(rng.uniform(0.5, 3.0, size=3), 3))
        target = Spacing(*np.round(rng.uniform(0.5, 3.0, size=3), 3))
        data = rng.integers(0, 15, size=dims).astype(np.uint8)
        got = resample_labels(Volume(data, old), target)
        want = nearest_ref(data, *_oracle_coords(dims, old, target))
        assert np.array_equal(got.data, want)
        assert got.data.dtype == np.uint8


def test_resample_labels_preserves_label_set():
    rng = np.random.default_rng(44)
    data = rng.integers(0, 15, size=(6, 6, 6)).astype(np.uint8)
    out = resample_labels(Volume(data, Spacing(1, 1, 1)), Spacing(0.5, 0.5, 0.5))
    assert set(np.unique(out.data)) <= set(np.unique(data))


def test_resample_image_rejects_single_voxel_axis():
    vol = _vol(np.zeros((1, 4, 4), dtype=np.float32))
    with pytest.raises(VoxsegError):
        resample_image(vol, Spacing(2, 2, 2))


def test_median_spacing_lower_median():
    sp = [Spacing(1, 1, 1), Spacing(2, 3, 5), Spacing(4, 2, 2), Spacing(3, 8, 9)]
    # sorted x: 1,2,3,4 -> lower median 2; y: 1,2,3,8 -> 2; z: 1,2,5,9 -> 2
    assert median_spacing(sp).as_tuple() == (2.0, 2.0, 2.0)
    assert median_spacing([Spacing(7, 8, 9)]).as_tuple() == (7.0, 8.0, 9.0)
    with pytest.raises(VoxsegError):
        median_spacing([])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(2, 8),
    st.floats(0.4, 4.0),
    st.floats(0.4, 4.0),
)
def test_sample_coords_property(n_out, n_in, old, target):
    from voxseg.preprocess import _sample_coords

    coords = _sample_coords(n_out, n_in, old, target)
    ref = sample_coords_ref(n_out, n_in, old, target)
    assert np.allclose(coords, ref)
    assert (coords >= 0).all() and (coords <= n_in - 1).all()
    assert (np.diff(coords) >= -1e-12).all()


@settings(max_examples=30, deadline=None)
@given(st.floats(-3000, 3000, allow_nan=False, width=32))
def test_clip_normalize_range_property(x):
    params = NormalizationParams()
    out = clip_normalize(_vol(np.array([[[x]]], dtype=np.float32)), params).data.ravel()[0]
    lo = (params.clip_lo - params.mean) / params.std
    hi = (params.clip_hi - params.mean) / params.std
    assert lo - 1e-6 <= out <= hi + 1e-6
