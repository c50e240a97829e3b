"""The class-major TTA reduction ``pipeline.reduce_prob_maps``: labels that
are the argmax of the float64 flip means (the lower class keeps an exact
tie), the same as those of ``voxseg tta-aggregate`` and of the in-memory
``tta.aggregate`` then ``tta.argmax_labels``; the wire-contract checks, and
memory."""
import tracemalloc
import weakref

import numpy as np
import pytest

from voxseg import pipeline
from voxseg.cli import main
from voxseg.errors import VoxsegError
from voxseg.nifti import load_nifti, save_nifti
from voxseg.pipeline import index_prob_maps, reduce_prob_maps
from voxseg.tta import FlipSpec, aggregate, argmax_labels, enumerate_flips
from voxseg.volume import PROB_TOL, ProbMap, Spacing, Volume

from oracles import flip_ref

SPACING = Spacing(0.8, 0.8, 2.5)


def _write_case(directory, case_id, maps, order="C"):
    """Save each flip's (C, nx, ny, nz) float32 map as ``<base>_prob_<c>``
    files, each channel saved from an array of the given memory order."""
    for (_, base), (classes, probs) in zip(pipeline._tta_bases(case_id, len(maps) > 1), maps):
        for c, channel in zip(classes, probs):
            data = np.asfortranarray(channel) if order == "F" else np.ascontiguousarray(channel)
            save_nifti(Volume(data, SPACING), directory / f"{base}_prob_{c}.nii.gz")


def _reference(flips, maps):
    """Flip-major labels of in-memory maps: each class's unflipped float64
    maps summed in flip order and divided by the flip count, then the
    argmax over classes, whose first maximum is the lowest class."""
    classes = maps[0][0]
    sums = sum(flip_ref(probs, spec).astype(np.float64) for spec, (_, probs) in zip(flips, maps))
    return np.asarray(classes, dtype=np.uint8)[np.argmax(sums / len(flips), axis=0)]


def _random_maps(rng, n_flips, classes, dims, quantized):
    """Random per-flip maps; quantized ones hold multiples of 1/4, so their
    means tie exactly and often but never nearly."""
    maps = []
    for _ in range(n_flips):
        if quantized:
            counts = rng.multinomial(4, [1 / len(classes)] * len(classes), size=dims)
            probs = np.moveaxis(counts, -1, 0) / 4
        else:
            raw = rng.random((len(classes),) + dims)
            probs = raw / raw.sum(axis=0)
        maps.append((tuple(classes), probs.astype(np.float32)))
    return maps


def _reduce(directory, case_id, use_tta):
    return reduce_prob_maps(index_prob_maps(directory), directory, case_id, use_tta)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("use_tta", [False, True])
@pytest.mark.parametrize("n_classes", [2, 5, 14])
def test_bit_identical_to_flip_major_reduction(tmp_path, n_classes, use_tta, order):
    rng = np.random.default_rng(1000 * n_classes + 10 * use_tta + (order == "F"))
    classes = (0, *sorted(rng.choice(np.arange(1, 15), n_classes - 1, replace=False).tolist()))
    flips = enumerate_flips() if use_tta else [FlipSpec()]
    for k, quantized in enumerate((False, True)):
        case_dir = tmp_path / f"maps{k}"
        case_dir.mkdir()
        maps = _random_maps(rng, len(flips), classes, (5, 6, 7), quantized)
        _write_case(case_dir, "case", maps, order)
        labels = _reduce(case_dir, "case", use_tta)
        assert labels.spacing.close_to(SPACING)
        assert labels.data.flags.f_contiguous
        assert np.array_equal(labels.data, _reference(flips, maps))


def _segmenter_outputs(canonical):
    """Each flip's output as a segmenter writes it: flip k's canonical
    (C, nx, ny, nz) map flipped like flip k's input."""
    return [
        (classes, flip_ref(probs, spec).copy())
        for spec, (classes, probs) in zip(enumerate_flips(), canonical)
    ]


def _near_tie_maps(dims, tie_voxel=None):
    """Classes (0, 14) over 8 flips: class 14 is 0.5 in seven flips and the
    next float32 above 0.5 in one, background is 1 - p.  Its float64 mean
    beats background's by 2**-26, a margin that rounding the means to
    float32 would erase.  With ``tie_voxel`` only that voxel is near a
    tie; elsewhere class 14 is 0.25 or 0.75."""
    canonical = []
    for k in range(8):
        p = np.full(dims, 0.5, dtype=np.float32)
        if tie_voxel is not None:
            p[...] = np.where(np.indices(dims).sum(axis=0) % 2, 0.75, 0.25)
            p[tie_voxel] = 0.5
        if k == 5:
            p[p == 0.5] = np.nextafter(np.float32(0.5), np.float32(1))
        canonical.append(((0, 14), np.stack([1 - p, p])))
    return _segmenter_outputs(canonical)


def test_near_tie_goes_to_the_larger_float64_mean(tmp_path):
    maps = _near_tie_maps((2, 3, 2))
    flips = enumerate_flips()
    _write_case(tmp_path, "tie", maps)
    labels = _reduce(tmp_path, "tie", True)
    assert (labels.data == 14).all()
    assert np.array_equal(labels.data, _reference(flips, maps))


def test_near_tie_that_a_later_class_overtakes_needs_no_fallback(tmp_path):
    # class 5 takes over from background by a hair, then class 14 wins clearly
    canonical = []
    for k in range(8):
        p5 = np.nextafter(np.float32(0.25), np.float32(1)) if k == 5 else np.float32(0.25)
        probs = np.stack([np.full((2, 2, 2), v, dtype=np.float32) for v in (0.25, p5, 0.5)])
        canonical.append(((0, 5, 14), probs))
    maps = _segmenter_outputs(canonical)
    _write_case(tmp_path, "later", maps)
    assert (_reduce(tmp_path, "later", True).data == 14).all()


def test_single_near_tie_voxel_goes_to_the_larger_float64_mean(tmp_path):
    maps = _near_tie_maps((3, 4, 2), tie_voxel=(1, 2, 1))
    flips = enumerate_flips()
    _write_case(tmp_path, "one", maps)
    labels = _reduce(tmp_path, "one", True)
    want = _reference(flips, maps)
    assert want[1, 2, 1] == 14 and (want == 0).any()
    assert np.array_equal(labels.data, want)


def test_near_ties_on_fourteen_classes_go_to_the_larger_float64_mean(tmp_path):
    # near ties between classes 3 and 9 at a few voxels of a 14-class map
    rng = np.random.default_rng(7)
    classes = tuple(range(14))
    flips = enumerate_flips()
    canonical = _random_maps(rng, 8, classes, (4, 5, 3), quantized=False)
    tied = rng.random((4, 5, 3)) < 0.3
    for k, (_, probs) in enumerate(canonical):
        probs[:, tied] = np.float32(0.2 / 12)
        probs[3, tied] = np.float32(0.4)
        probs[9, tied] = np.nextafter(np.float32(0.4), np.float32(1)) if k == 2 else np.float32(0.4)
    maps = _segmenter_outputs(canonical)
    _write_case(tmp_path, "c14", maps)
    labels = _reduce(tmp_path, "c14", True).data
    assert (labels[tied] == 9).all()
    assert np.array_equal(labels, _reference(flips, maps))


def _in_memory(maps, order):
    """Each flip's map as a ``ProbMap`` whose channels have the given order."""
    for classes, probs in maps:
        if order == "F":
            probs = np.moveaxis(np.asfortranarray(np.moveaxis(probs, 0, -1)), -1, 0)
        yield ProbMap(probs, classes, SPACING)


def test_library_pipeline_and_cli_give_the_same_labels(tmp_path):
    rng = np.random.default_rng(23)
    cases = [_near_tie_maps((2, 3, 2)), _near_tie_maps((3, 4, 2), tie_voxel=(1, 2, 1))]
    for k in range(20):
        n_classes = (2, 5, 14)[k % 3]
        classes = (0, *sorted(rng.choice(np.arange(1, 15), n_classes - 1, replace=False).tolist()))
        cases.append(_random_maps(rng, 8, classes, (4, 3, 5), quantized=k % 2 == 1))
    for k, maps in enumerate(cases):
        order = "CF"[k // 2 % 2]
        case_dir = tmp_path / f"maps{k}"
        case_dir.mkdir()
        _write_case(case_dir, "m", maps, order)
        piped = _reduce(case_dir, "m", True).data
        out = tmp_path / f"cli{k}.nii.gz"
        assert main(["tta-aggregate", "--input-dir", str(case_dir), "--case", "m", "--out", str(out)]) == 0
        library = argmax_labels(aggregate(zip(enumerate_flips(), _in_memory(maps, order)))).data
        assert np.array_equal(library, piped), k
        assert np.array_equal(load_nifti(out).data, piped), k


def test_loads_class_major_one_channel_alive_at_a_time(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    _write_case(tmp_path, "cm", _random_maps(rng, 8, (0, 2, 14), (3, 4, 5), False))
    loaded = []
    real_load = pipeline.load_nifti

    def tracking_load(path):
        assert all(ref() is None for _, ref in loaded), path.name
        vol = real_load(path)
        loaded.append((path.name, weakref.ref(vol.data)))
        return vol

    monkeypatch.setattr(pipeline, "load_nifti", tracking_load)
    _reduce(tmp_path, "cm", True)
    assert [name for name, _ in loaded] == [
        f"cm__tta{k}_prob_{c}.nii.gz" for c in (0, 2, 14) for k in range(8)
    ]


def test_peak_memory_is_a_few_volumes_not_classes_times_volumes(tmp_path):
    dims = (24, 24, 24)
    classes = tuple(range(14))
    rng = np.random.default_rng(5)
    _write_case(tmp_path, "big", _random_maps(rng, 8, classes, dims, False))
    index = index_prob_maps(tmp_path)
    volume_f64 = 8 * int(np.prod(dims))
    tracemalloc.start()
    try:
        reduce_prob_maps(index, tmp_path, "big", use_tta=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (14, V) float64 accumulator alone is 14 such volumes
    assert peak < 10 * volume_f64, peak / volume_f64


def _two_class_case(directory, case_id, background, foreground):
    for c, value in ((0, background), (14, foreground)):
        save_nifti(Volume(np.full((2, 2, 2), value, dtype=np.float32), SPACING),
                   directory / f"{case_id}_prob_{c}.nii.gz")


@pytest.mark.parametrize("background, foreground, message", [
    (0.4, 0.4, r"sum to 0\.8\.\.0\.8 per voxel, not 1"),
    (1.5, -0.5, r"class 0 averages 1\.5\.\.1\.5, outside \[0, 1\]"),
    (-0.5, 1.5, r"class 0 averages -0\.5\.\.-0\.5, outside \[0, 1\]"),
    (0.0, 1.01, r"class 14 averages 1\.01\.\.1\.01, outside \[0, 1\]"),
])
def test_contract_values(tmp_path, background, foreground, message):
    _two_class_case(tmp_path, "bad", background, foreground)
    with pytest.raises(VoxsegError, match=message):
        _reduce(tmp_path, "bad", False)


def test_contract_tolerance_is_prob_tol(tmp_path):
    _two_class_case(tmp_path, "ok", 0.3, 0.7 + PROB_TOL / 2)
    assert (_reduce(tmp_path, "ok", False).data == 14).all()
    _two_class_case(tmp_path, "off", 0.3, 0.7 + PROB_TOL * 2)
    with pytest.raises(VoxsegError, match="not 1"):
        _reduce(tmp_path, "off", False)


def test_contract_grid(tmp_path):
    _two_class_case(tmp_path, "g", 0.3, 0.7)
    index = index_prob_maps(tmp_path)
    grid = Volume(np.zeros((2, 2, 2), dtype=np.uint8), SPACING)
    assert (reduce_prob_maps(index, tmp_path, "g", False, grid).data == 14).all()
    with pytest.raises(VoxsegError, match=r"dim mismatch: image \(2, 2, 3\) vs g_prob_0\.nii\.gz \(2, 2, 2\)"):
        reduce_prob_maps(index, tmp_path, "g", False, Volume(np.zeros((2, 2, 3), dtype=np.uint8), SPACING))
    with pytest.raises(VoxsegError, match=r"spacing mismatch: image \(1, 1, 1\) mm vs g_prob_0\.nii\.gz"):
        reduce_prob_maps(index, tmp_path, "g", False, Volume(grid.data, Spacing(1, 1, 1)))
    # without a grid the first background map sets it, and every channel must agree
    save_nifti(Volume(np.full((2, 2, 3), 0.7, dtype=np.float32), SPACING), tmp_path / "g_prob_14.nii.gz")
    with pytest.raises(VoxsegError, match=r"dim mismatch: g_prob_0\.nii\.gz \(2, 2, 2\) vs g_prob_14\.nii\.gz \(2, 2, 3\)"):
        _reduce(tmp_path, "g", False)


def test_contract_classes(tmp_path):
    _write_case(tmp_path, "k", _near_tie_maps((2, 2, 2)))
    (tmp_path / "k__tta3_prob_14.nii.gz").unlink()
    with pytest.raises(VoxsegError, match=r"'k__tta3' have classes \[0\], but those of 'k__tta0' have \[0, 14\]"):
        _reduce(tmp_path, "k", True)
    _two_class_case(tmp_path, "nobg", 0.3, 0.7)
    (tmp_path / "nobg_prob_0.nii.gz").unlink()
    with pytest.raises(VoxsegError, match=r"have classes \[14\], not background 0"):
        _reduce(tmp_path, "nobg", False)
    _two_class_case(tmp_path, "big", 0.3, 0.7)
    (tmp_path / "big_prob_14.nii.gz").rename(tmp_path / "big_prob_300.nii.gz")
    with pytest.raises(VoxsegError, match=r"have classes \[0, 300\], not background 0 and classes up to 14"):
        _reduce(tmp_path, "big", False)
