import gzip
import struct

import numpy as np
import pytest

from voxseg.errors import NiftiError
from voxseg.nifti import (
    DATA_OFFSET,
    GZIP_LEVEL,
    HEADER_SIZE,
    find_nifti,
    load_nifti,
    nifti_files,
    nifti_stem,
    peek_nifti,
    save_nifti,
)
from voxseg.volume import Spacing, Volume

from conftest import rand_spacing


def _random_volume(rng, dtype):
    dims = tuple(rng.integers(2, 9, size=3))
    if np.dtype(dtype).kind == "f":
        data = rng.normal(0, 100, size=dims).astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max + 1, size=dims, dtype=dtype)
    return Volume(data, rand_spacing(rng))


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, np.float32])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_roundtrip_all_dtypes(tmp_path, dtype, suffix):
    rng = np.random.default_rng(hash((str(dtype), suffix)) % 2**32)
    for _ in range(5):
        vol = _random_volume(rng, dtype)
        path = tmp_path / f"vol{suffix}"
        save_nifti(vol, path)
        back = load_nifti(path)
        assert back.data.dtype == np.dtype(dtype)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing.close_to(vol.spacing, tol=1e-6)


@pytest.mark.parametrize("dtype", [">i2", ">u2", ">f4"])
def test_roundtrip_big_endian_array(tmp_path, dtype):
    # the file is little-endian, so a big-endian array's bytes are swapped on write
    data = np.arange(1, 9, dtype=dtype).reshape((2, 2, 2))
    path = tmp_path / "be.nii.gz"
    save_nifti(Volume(data, Spacing(1, 1, 1)), path)
    back = load_nifti(path)
    assert back.data.dtype == np.dtype(dtype).newbyteorder("<")
    assert np.array_equal(back.data, data)


def test_fortran_order_on_disk(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape((2, 3, 4))
    vol = Volume(data, Spacing(1, 1, 1))
    path = tmp_path / "f.nii"
    save_nifti(vol, path)
    raw = path.read_bytes()
    payload = np.frombuffer(raw[DATA_OFFSET:], dtype="<i2")
    assert np.array_equal(payload, data.ravel(order="F"))
    # fastest-varying axis on disk is x
    assert payload[0] == data[0, 0, 0] and payload[1] == data[1, 0, 0]


def test_gzip_output_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    vol = _random_volume(rng, np.int16)
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    save_nifti(vol, a)
    save_nifti(vol, b)
    assert a.read_bytes() == b.read_bytes()


def test_gzip_level_is_fastest(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "v.nii.gz"
    save_nifti(_random_volume(rng, np.uint8), path)
    assert GZIP_LEVEL == 1
    # gzip header XFL byte: 4 marks the fastest compression level
    assert path.read_bytes()[8] == 4


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_load_keeps_x_fastest_layout(tmp_path, suffix):
    data = np.arange(2 * 3 * 4, dtype=np.int16).reshape((2, 3, 4))
    path = tmp_path / f"v{suffix}"
    save_nifti(Volume(data, Spacing(1, 1, 1)), path)
    back = load_nifti(path).data
    assert back.flags.writeable and back.flags.f_contiguous and back.flags.owndata
    assert np.array_equal(back, data)
    raw = gzip.decompress(path.read_bytes()) if suffix == ".nii.gz" else path.read_bytes()
    payload = np.frombuffer(raw[DATA_OFFSET:], dtype="<i2")
    assert back.ravel(order="K").tolist() == payload.tolist()
    back[0, 0, 0] = 99  # writable, and not a view of anything shared
    assert load_nifti(path).data[0, 0, 0] == 0


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_save_bytes_independent_of_memory_order(tmp_path, suffix):
    rng = np.random.default_rng(9)
    vol = _random_volume(rng, np.float32)
    written = []
    strided = np.repeat(vol.data, 2, axis=1)[:, ::2]
    for i, data in enumerate((np.ascontiguousarray(vol.data), np.asfortranarray(vol.data), strided)):
        path = tmp_path / f"v{i}{suffix}"
        save_nifti(vol.with_data(data), path)
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]


def test_peek_matches_full_load(tmp_path):
    rng = np.random.default_rng(3)
    for suffix in (".nii", ".nii.gz"):
        vol = _random_volume(rng, np.uint8)
        path = tmp_path / f"p{suffix}"
        save_nifti(vol, path)
        head = peek_nifti(path)
        assert head.dims == vol.dims
        assert head.spacing.close_to(vol.spacing, tol=1e-6)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_peek_is_the_loaded_header_over_read_only_zeros(tmp_path, suffix):
    extra = bytes(range(1, 93))
    path = tmp_path / f"h{suffix}"
    save_nifti(Volume(np.arange(24, dtype=np.int16).reshape((2, 3, 4)), Spacing(0.5, 1, 3), extra=extra), path)
    head, full = peek_nifti(path), load_nifti(path)
    assert (head.dims, head.spacing, head.extra) == (full.dims, full.spacing, full.extra)
    assert head.extra == extra and not head.data.any()
    assert head.data.strides == (0, 0, 0)  # no payload-sized buffer behind it
    with pytest.raises(ValueError, match="read-only"):
        head.data[0, 0, 0] = 1


def test_scl_slope_applied_on_load(tmp_path):
    vol = Volume(np.arange(8, dtype=np.int16).reshape((2, 2, 2)), Spacing(1, 1, 1))
    path = tmp_path / "s.nii"
    save_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, 10.0)
    path.write_bytes(bytes(raw))
    back = load_nifti(path)
    assert back.data.dtype == np.float32
    assert np.allclose(back.data, vol.data.astype(np.float32) * 2.0 + 10.0)


def test_zero_slope_means_no_scaling(tmp_path):
    vol = Volume(np.arange(8, dtype=np.int16).reshape((2, 2, 2)), Spacing(1, 1, 1))
    path = tmp_path / "z.nii"
    save_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 0.0, 99.0)
    path.write_bytes(bytes(raw))
    back = load_nifti(path)
    assert back.data.dtype == np.int16
    assert np.array_equal(back.data, vol.data)


def test_header_extra_bytes_roundtrip(tmp_path):
    extra = bytes(range(92))
    vol = Volume(
        np.zeros((2, 2, 2), dtype=np.uint8), Spacing(1, 1, 1), extra=extra
    )
    path = tmp_path / "e.nii"
    save_nifti(vol, path)
    assert load_nifti(path).extra == extra


def _valid_file(tmp_path, name="v.nii"):
    vol = Volume(np.ones((2, 2, 2), dtype=np.uint8), Spacing(1, 1, 1))
    path = tmp_path / name
    save_nifti(vol, path)
    return path


def test_rejects_big_endian(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(">i", raw, 0, HEADER_SIZE)
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="big-endian"):
        load_nifti(path)


def test_rejects_bad_magic(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"ni1\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="magic"):
        load_nifti(path)


def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "t.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(NiftiError, match="truncated header"):
        load_nifti(path)


def test_rejects_truncated_payload(tmp_path):
    path = _valid_file(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(NiftiError, match="truncated payload"):
        load_nifti(path)


def test_rejects_unsupported_datatype_code(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 64)  # float64
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="datatype"):
        load_nifti(path)


def test_rejects_non_3d(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 40, 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="3D"):
        load_nifti(path)


def test_rejects_bad_vox_offset(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 108, 0.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="vox_offset"):
        load_nifti(path)


def test_rejects_nonpositive_pixdim(tmp_path):
    path = _valid_file(tmp_path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 76 + 4, 0.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(NiftiError, match="pixdim"):
        load_nifti(path)


def test_rejects_nan_payload(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = np.nan
    path = tmp_path / "n.nii"
    save_nifti(Volume(data, Spacing(1, 1, 1)), path)
    with pytest.raises(NiftiError, match="NaN"):
        load_nifti(path)


def test_save_rejects_unsupported_dtype(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float64), Spacing(1, 1, 1))
    with pytest.raises(NiftiError, match="dtype"):
        save_nifti(vol, tmp_path / "x.nii")


def test_gzip_detection_by_content_not_name(tmp_path):
    # a gzip payload saved under a .nii name still loads
    vol = Volume(np.ones((2, 2, 2), dtype=np.uint8), Spacing(1, 1, 1))
    gz = tmp_path / "c.nii.gz"
    save_nifti(vol, gz)
    plain_name = tmp_path / "c.nii"
    plain_name.write_bytes(gz.read_bytes())
    back = load_nifti(plain_name)
    assert np.array_equal(back.data, vol.data)


def test_hand_gzipped_file_loads_and_peeks(tmp_path):
    vol = Volume(np.arange(8, dtype=np.uint8).reshape((2, 2, 2)), Spacing(1, 1, 2))
    plain = tmp_path / "plain.nii"
    save_nifti(vol, plain)
    assert plain.read_bytes()[:4] == struct.pack("<i", HEADER_SIZE)  # no gzip without .gz
    path = tmp_path / "packed.nii"
    path.write_bytes(gzip.compress(plain.read_bytes()))
    back = load_nifti(path)
    assert np.array_equal(back.data, vol.data) and back.spacing == vol.spacing
    head = peek_nifti(path)
    assert (head.dims, head.spacing) == (vol.dims, vol.spacing)


@pytest.mark.parametrize("cut", ["header", "payload"])
def test_truncated_gzip_raises_nifti_error(tmp_path, cut):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.nii.gz"
    save_nifti(Volume(rng.integers(0, 255, (32, 32, 16), dtype=np.uint8), Spacing(1, 1, 1)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:60] if cut == "header" else raw[: len(raw) // 2])
    with pytest.raises(NiftiError, match=r"t\.nii\.gz: truncated or corrupt gzip stream"):
        load_nifti(path)
    if cut == "header":  # peek reads no further than the header
        with pytest.raises(NiftiError, match="truncated or corrupt gzip stream"):
            peek_nifti(path)


def test_corrupt_gzip_raises_nifti_error(tmp_path):
    path = tmp_path / "c.nii.gz"
    save_nifti(Volume(np.ones((8, 8, 8), dtype=np.uint8), Spacing(1, 1, 1)), path)
    raw = bytearray(path.read_bytes())
    raw[10:20] = b"\xff" * 10  # the start of the deflate stream
    path.write_bytes(bytes(raw))
    for read in (load_nifti, peek_nifti):
        with pytest.raises(NiftiError, match="truncated or corrupt gzip stream"):
            read(path)


def _two_members(raw: bytes) -> bytes:
    plain = gzip.decompress(raw)
    return gzip.compress(plain[:DATA_OFFSET]) + gzip.compress(plain[DATA_OFFSET:])


def _with_trailer(raw: bytes, crc_xor: int = 0, size_xor: int = 0) -> bytes:
    crc, size = struct.unpack("<II", raw[-8:])
    return raw[:-8] + struct.pack("<II", crc ^ crc_xor, size ^ size_xor)


@pytest.mark.parametrize("alter", [
    _two_members,
    lambda raw: raw + b"\x00" * 8,  # zero padding, which gzip skips
    lambda raw: raw + b"trailing",
    lambda raw: _with_trailer(raw, crc_xor=1),
    lambda raw: _with_trailer(raw, size_xor=1),
    lambda raw: _with_trailer(raw, size_xor=1 << 30),  # beyond any deflate ratio
], ids=["two_members", "zero_padding", "trailing_bytes", "bad_crc", "bad_size", "huge_size"])
def test_gzip_files_load_as_gzip_decompress_reads_them(tmp_path, alter):
    # a one-member file is inflated on its own path; every other file
    # gives gzip.decompress's result or error text, as before that path
    rng = np.random.default_rng(11)
    vol = Volume(rng.normal(0, 1, (9, 7, 5)).astype(np.float32), Spacing(1, 1, 2))
    path = tmp_path / "v.nii.gz"
    save_nifti(vol, path)
    raw = alter(path.read_bytes())
    path.write_bytes(raw)
    try:
        plain = tmp_path / "v.nii"
        plain.write_bytes(gzip.decompress(raw))
    except (EOFError, gzip.BadGzipFile) as exc:
        with pytest.raises(NiftiError) as raised:
            load_nifti(path)
        assert str(raised.value) == f"{path}: truncated or corrupt gzip stream: {exc}"
    else:
        assert np.array_equal(load_nifti(path).data, load_nifti(plain).data)


def test_file_naming_rule(tmp_path):
    assert nifti_stem("a.b.nii.gz") == "a.b"
    assert nifti_stem("a.nii") == "a"
    assert nifti_stem("a.nii.gz.tmp123") is None
    for name in ("b.nii", "b.nii.gz", "a-1.nii", "a.nii.gz", "c.nii.gz.tmp7", "notes.txt"):
        (tmp_path / name).write_bytes(b"")
    files = nifti_files(tmp_path)
    # stem order, not listing order; .nii.gz wins over .nii for one stem
    assert list(files) == ["a", "a-1", "b"]
    assert files["b"] == tmp_path / "b.nii.gz"
    assert files["a-1"] == tmp_path / "a-1.nii"
    assert find_nifti(tmp_path, "b") == tmp_path / "b.nii.gz"
    assert find_nifti(tmp_path, "a-1") == tmp_path / "a-1.nii"
    assert find_nifti(tmp_path, "c") is None
    assert find_nifti(tmp_path / "missing", "b") is None
