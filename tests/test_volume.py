import math
import os
import stat

import numpy as np
import pytest

from oracles import pattern_coords_meshgrid, sample_plane
from planefinder import phantom
from planefinder.codebook import BoWHistogram, Codebook
from planefinder.phantom import PhantomSpec, synth_phantom
from planefinder.volume import (CANDIDATE_CAPACITY, PlaneParams, PlaneSequence, Volume4D,
                                VolumeError, extract_plane_sequence,
                                generate_candidates, load_volume, plane_angle,
                                plane_from_center, save_volume)


def write_raw_volume(tmp_path, dims=(4, 4, 4), frames=2, dtype="u8", payload=None):
    nx, ny, nz = dims
    raw = tmp_path / "vol.raw"
    if payload is None:
        payload = bytes(frames * nz * ny * nx)
    raw.write_bytes(payload)
    header = tmp_path / "vol.vol4"
    header.write_text(
        "dims=%d %d %d\nspacing=1 1 1\nframes=%d\ndtype=%s\ndata=vol.raw\n"
        % (nx, ny, nz, frames, dtype))
    return header


def test_load_u8_size_arithmetic(tmp_path):
    header = write_raw_volume(tmp_path)
    vol = load_volume(str(header))
    assert vol.voxels.size == 128
    assert vol.dims == (4, 4, 4)
    assert vol.n_frames == 2


def test_load_short_raw_errors(tmp_path):
    header = write_raw_volume(tmp_path, payload=bytes(127))
    with pytest.raises(VolumeError, match="mismatch"):
        load_volume(str(header))


@pytest.mark.parametrize("dims", ["4 4", "4 4 x"])
def test_load_bad_dims_value(tmp_path, dims):
    header = write_raw_volume(tmp_path)
    header.write_text(header.read_text().replace("dims=4 4 4", "dims=" + dims))
    with pytest.raises(VolumeError, match="bad header value") as info:
        load_volume(str(header))
    assert isinstance(info.value.__cause__, ValueError)


def test_load_negative_dims(tmp_path):
    # -4 x -4 x 4 x 2 frames asks for 128 bytes, which the raw file holds
    header = write_raw_volume(tmp_path)
    header.write_text(header.read_text().replace("dims=4 4 4", "dims=-4 -4 4"))
    with pytest.raises(VolumeError, match="positive"):
        load_volume(str(header))


def test_load_header_field_given_twice(tmp_path):
    header = write_raw_volume(tmp_path)
    header.write_text(header.read_text() + "frames=1\n")
    with pytest.raises(VolumeError, match=r":6: header field 'frames' given twice"):
        load_volume(str(header))


def test_load_header_not_utf8(tmp_path):
    header = write_raw_volume(tmp_path)
    header.write_bytes(header.read_bytes() + b"# \xff\xfe\n")
    with pytest.raises(VolumeError, match="cannot read") as info:
        load_volume(str(header))
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_load_all_zero_u8_rescales_to_zero(tmp_path):
    header = write_raw_volume(tmp_path)
    vol = load_volume(str(header))
    assert np.all(vol.voxels == 0.0)


def test_load_missing_header():
    with pytest.raises(VolumeError):
        load_volume("/nonexistent/vol.vol4")


def test_roundtrip_u8_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vox = rng.integers(0, 256, size=(3, 4, 5, 6)).astype(np.float64) / 255.0
    vol = Volume4D(voxels=vox, spacing=(0.1234567, 1.0, 2.5e-7))
    path = str(tmp_path / "rt.vol4")
    save_volume(vol, path, dtype="u8")
    back = load_volume(path)
    assert np.array_equal(back.voxels, vol.voxels)
    assert back.spacing == vol.spacing


@pytest.mark.parametrize("spacing", [(1.0, 2.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, np.nan),
                                     (1.0, np.inf, 1.0), (0.0, 1.0, 1.0), (1.0, -2.0, 1.0)])
def test_spacing_must_be_three_finite_positive_numbers(tmp_path, spacing):
    with pytest.raises(VolumeError, match="spacing must be three finite positive"):
        Volume4D(np.zeros((1, 4, 4, 4)), spacing)
    # the same spacing in a .vol4 header
    header = write_raw_volume(tmp_path, frames=1)
    header.write_text(header.read_text().replace(
        "spacing=1 1 1", "spacing=" + " ".join(repr(s) for s in spacing)))
    with pytest.raises(VolumeError, match="spacing"):
        load_volume(str(header))


def test_save_u8_codes_equal_np_round_of_255_times_the_values(tmp_path):
    # exact half-codes (k + 0.5) / 255 sit on or next to rounding ties
    values = np.random.default_rng(16).random(2 * 4 * 8 * 16)
    values[:255] = (np.arange(255) + 0.5) / 255.0
    values[255:257] = (0.0, 1.0)
    vol = Volume4D(voxels=values.reshape(2, 4, 8, 16))
    save_volume(vol, str(tmp_path / "codes.vol4"), dtype="u8")
    expected = np.round(vol.voxels * 255.0).astype("<u1").tobytes()
    assert (tmp_path / "codes.raw").read_bytes() == expected


@pytest.mark.parametrize("stored", [np.float64, np.float32, np.uint8])
def test_save_u8_frame_by_frame_equals_the_whole_volume_codes(tmp_path, stored):
    # the payload is encoded one frame at a time; every stored dtype must
    # give the codes of the whole decoded volume at once
    rng = np.random.default_rng(17)
    values = rng.random((3, 5, 8, 16))
    values[0, 0, 0, :3] = (0.0, 1.0, 0.5 / 255.0)
    voxels = {np.float64: values, np.float32: values.astype(np.float32),
              np.uint8: np.rint(values * 255.0).astype(np.uint8)}[stored]
    vol = Volume4D(voxels=voxels)
    assert vol.stored.dtype == stored
    save_volume(vol, str(tmp_path / "frames.vol4"), dtype="u8")
    expected = np.rint(vol.voxels * 255).astype("<u1").tobytes()
    assert (tmp_path / "frames.raw").read_bytes() == expected


def test_load_u8_is_byte_over_255(tmp_path):
    payload = np.arange(256, dtype=np.uint8)
    vol = load_volume(str(write_raw_volume(tmp_path, dims=(8, 4, 4), frames=2,
                                           payload=payload.tobytes())))
    assert np.array_equal(vol.voxels.ravel(), payload / 255.0)


def test_load_f32_nan_names_the_file(tmp_path):
    payload = np.full(128, 0.5, dtype="<f4")
    payload[77] = np.nan
    header = write_raw_volume(tmp_path, dtype="f32", payload=payload.tobytes())
    with pytest.raises(VolumeError, match="NaN voxels in .*vol.raw"):
        load_volume(str(header))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, 1.5, -0.5])
def test_load_f32_bad_value_names_the_file(tmp_path, bad):
    payload = np.full(128, 0.5, dtype="<f4")
    payload[77] = bad
    header = write_raw_volume(tmp_path, dtype="f32", payload=payload.tobytes())
    with pytest.raises(VolumeError, match=r"vol\.raw"):
        load_volume(str(header))


@pytest.mark.parametrize("dtype, itemsize", [("u8", 1), ("f32", 4)])
def test_loaded_volume_stores_its_payload_bytes(tmp_path, dtype, itemsize):
    header = write_raw_volume(tmp_path, dims=(5, 4, 3), frames=2, dtype=dtype,
                              payload=bytes(2 * 3 * 4 * 5 * itemsize))
    assert load_volume(str(header)).stored.nbytes == 2 * 3 * 4 * 5 * itemsize


def test_volume_keeps_a_float64_array_and_reads_uint8_as_codes(tmp_path):
    vox = np.random.default_rng(11).random((2, 3, 3, 3))
    assert np.shares_memory(Volume4D(voxels=vox).voxels, vox)
    # every code is valid, and decodes as a loaded u8 file's would
    codes = np.arange(256, dtype=np.uint8).reshape(2, 8, 4, 4)
    vol = Volume4D(voxels=codes)
    assert np.shares_memory(vol.stored, codes) and vol.divisor == 255.0
    assert vol.voxels.dtype == np.float64 and np.array_equal(vol.voxels, codes / 255.0)
    loaded = load_volume(str(write_raw_volume(tmp_path, dims=(4, 4, 8), frames=2,
                                              payload=codes.tobytes())))
    assert np.array_equal(loaded.stored, vol.stored) and loaded.divisor == vol.divisor


@pytest.mark.parametrize("cls, field, shape, dtype", [
    (Volume4D, "stored", (1, 2, 2, 2), np.uint8),
    (Volume4D, "stored", (1, 2, 2, 2), np.float32),
    (Volume4D, "stored", (1, 2, 2, 2), np.float64),
    (PlaneSequence, "frames", (1, 2, 2), np.float32),
    (PlaneSequence, "frames", (1, 2, 2), np.float64),
    (Codebook, "centroids", (2, 2), np.float64),
    (BoWHistogram, "values", (3,), np.float64)])
def test_constructors_freeze_their_own_view_of_the_callers_array(cls, field, shape, dtype):
    given = np.zeros(shape, dtype)
    held = getattr(cls(given), field)
    # held without a copy, read-only, while the caller's array stays writeable
    assert np.shares_memory(held, given)
    assert not held.flags.writeable and given.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_volume_rejects_non_finite_voxels(bad):
    vox = np.full((2, 3, 3, 3), 0.5)
    vox[1, 2, 0, 1] = bad
    with pytest.raises(VolumeError, match="non-finite"):
        Volume4D(voxels=vox)
    # an out-of-range value elsewhere does not hide it
    vox[0, 0, 0, 0] = 2.0
    with pytest.raises(VolumeError, match="non-finite"):
        Volume4D(voxels=vox)


def test_roundtrip_f32(tmp_path):
    rng = np.random.default_rng(1)
    vox = rng.random((2, 4, 4, 4)).astype(np.float32).astype(np.float64)
    vol = Volume4D(voxels=vox)
    path = str(tmp_path / "rt32.vol4")
    save_volume(vol, path, dtype="f32")
    back = load_volume(path)
    assert np.array_equal(back.voxels, vol.voxels)


def test_save_one_frame_header(tmp_path):
    vol = Volume4D(voxels=np.zeros((1, 4, 4, 4)))
    path = str(tmp_path / "one.vol4")
    save_volume(vol, path)
    assert "frames=1" in (tmp_path / "one.vol4").read_text()


def test_save_unwritable_destination(tmp_path):
    vol = Volume4D(voxels=np.zeros((1, 4, 4, 4)))
    with pytest.raises(VolumeError):
        save_volume(vol, str(tmp_path / "missing_dir" / "x.vol4"))


def test_sample_constant_volume():
    vol = Volume4D(voxels=np.full((1, 8, 8, 8), 0.7))
    p = plane_from_center((3.5, 3.5, 3.5), (0.3, 0.5, 0.8), width=6, height=6)
    img = extract_plane_sequence(vol, p).frames[0]
    assert np.allclose(img, 0.7, atol=1e-12)


def test_sample_linear_field_exact():
    nx = 8
    vox = np.zeros((1, 8, 8, nx))
    vox[:] = (np.arange(nx) / (nx - 1))[None, None, None, :]
    vol = Volume4D(voxels=vox)
    p = PlaneParams(origin=(0, 2, 2), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    width=6, height=4)
    img = extract_plane_sequence(vol, p).frames[0]
    expected = (np.arange(6) / (nx - 1))[None, :]
    assert np.abs(img - expected).max() <= 1e-12


def test_sample_affine_field_exact():
    # trilinear interpolation reproduces any affine field inside the grid
    rng = np.random.default_rng(3)
    a, b, c, d = 0.1, 0.02, 0.03, 0.01
    xs, ys, zs = np.arange(8), np.arange(8), np.arange(8)
    zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
    vox = (a + b * xx + c * yy + d * zz)[None]
    vol = Volume4D(voxels=vox)
    n = rng.normal(size=3)
    p = plane_from_center((3.5, 3.5, 3.5), n, width=5, height=5)
    img = extract_plane_sequence(vol, p).frames[0]
    o = np.asarray(p.origin)
    u = np.asarray(p.axis_u)
    v = np.asarray(p.axis_v)
    for r in range(5):
        for col in range(5):
            pt = o + col * u + r * v
            assert abs(img[r, col] - (a + b * pt[0] + c * pt[1] + d * pt[2])) <= 1e-12


def test_sample_at_voxel_center():
    rng = np.random.default_rng(4)
    vox = rng.random((1, 6, 6, 6))
    vol = Volume4D(voxels=vox)
    p = PlaneParams(origin=(2, 3, 4), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    width=2, height=2)
    img = extract_plane_sequence(vol, p).frames[0]
    assert img[0, 0] == pytest.approx(vox[0, 4, 3, 2], abs=1e-15)


def test_sample_outside_is_zero():
    vol = Volume4D(voxels=np.full((1, 4, 4, 4), 1.0))
    p = PlaneParams(origin=(100, 100, 100), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    width=4, height=4)
    assert np.all(extract_plane_sequence(vol, p).frames == 0.0)


def test_sampling_linear_in_volume():
    rng = np.random.default_rng(5)
    v1 = rng.random((1, 6, 6, 6)) * 0.5
    v2 = rng.random((1, 6, 6, 6)) * 0.5
    p = plane_from_center((2.5, 2.5, 2.5), (0.2, 0.3, 0.9), width=5, height=5)
    s1, s2, s12 = (extract_plane_sequence(Volume4D(voxels=v), p).frames[0]
                   for v in (v1, v2, v1 + v2))
    assert np.abs(s12 - (s1 + s2)).max() <= 1e-12


def test_extract_sequence_single_frame():
    vol = Volume4D(voxels=np.random.default_rng(6).random((1, 6, 6, 6)))
    p = plane_from_center((2.5, 2.5, 2.5), (0, 0, 1), width=4, height=4)
    seq = extract_plane_sequence(vol, p)
    assert seq.n_frames == 1


def test_extract_sequence_identical_frames():
    frame = np.random.default_rng(7).random((6, 6, 6))
    vol = Volume4D(voxels=np.stack([frame, frame, frame]))
    p = plane_from_center((2.5, 2.5, 2.5), (0.1, 0.9, 0.2), width=4, height=4)
    seq = extract_plane_sequence(vol, p)
    assert np.array_equal(seq.frames[0], seq.frames[1])
    assert np.array_equal(seq.frames[0], seq.frames[2])


def _reference_trilinear(grid, x, y, z):
    """The hand-written zero-padded trilinear interpolator resampling used to
    run: eight corners, each weighted and zero outside the grid."""
    nz, ny, nx = grid.shape
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    z0 = np.floor(z).astype(np.int64)
    fx = x - x0
    fy = y - y0
    fz = z - z0
    out = np.zeros(x.shape, dtype=np.float64)
    for dz in (0, 1):
        wz = np.where(dz == 1, fz, 1.0 - fz)
        zi = z0 + dz
        for dy in (0, 1):
            wy = np.where(dy == 1, fy, 1.0 - fy)
            yi = y0 + dy
            for dx in (0, 1):
                wx = np.where(dx == 1, fx, 1.0 - fx)
                xi = x0 + dx
                inside = ((xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny)
                          & (zi >= 0) & (zi < nz))
                val = np.zeros(x.shape, dtype=np.float64)
                val[inside] = grid[zi[inside], yi[inside], xi[inside]]
                out += wx * wy * wz * val
    return out


@pytest.mark.parametrize("seed", range(4))
def test_resampling_matches_trilinear_reference(seed):
    rng = np.random.default_rng(seed)
    vol = Volume4D(voxels=rng.random((3, 9, 11, 13)))
    # oblique planes wider than the volume, so part of each grid lies outside
    # and part within one voxel of the boundary, where zero padding matters
    p = plane_from_center(rng.uniform(3.0, 7.0, size=3), rng.normal(size=3), width=23,
                          height=19, roll=rng.uniform(0, 2 * math.pi))
    cols = np.arange(p.width)
    rows = np.arange(p.height)
    pts = (np.asarray(p.origin) + cols[None, :, None] * np.asarray(p.axis_u)
           + rows[:, None, None] * np.asarray(p.axis_v))
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    lo = np.minimum(np.minimum(x, y), z)
    over = np.maximum(np.maximum(x - 12, y - 10), z - 8)
    edge = ((lo > -1) & (lo < 0)) | ((over > 0) & (over < 1))
    assert edge.any() and ((lo < -1) | (over > 1)).any()
    ref = np.stack([_reference_trilinear(frame, x, y, z) for frame in vol.voxels])
    seq = extract_plane_sequence(vol, p)
    assert np.abs(seq.frames - ref).max() <= 1e-15
    assert np.array_equal(sample_plane(vol, p, 1), seq.frames[1])


def _face_crossing_planes(dims):
    """Oblique planes centred on each face of an (nx, ny, nz) grid, and two
    with extreme placements: fully outside the grid, and the last z slice
    exactly, whose far corners are the last voxel."""
    rng = np.random.default_rng(9)
    mid = (np.asarray(dims) - 1) / 2.0
    planes = []
    for axis in range(3):
        for end in (0.0, dims[axis] - 1.0):
            centre = mid.copy()
            centre[axis] = end
            planes.append(plane_from_center(centre, rng.normal(size=3), width=9, height=7,
                                            roll=rng.uniform(0, 2 * math.pi)))
    planes.append(plane_from_center((-5.0, 20.0, -3.0), (0.3, 0.4, 0.5), width=4, height=3))
    nx, ny, nz = dims
    planes.append(PlaneParams(origin=(0.0, 0.0, nz - 1.0), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                              width=nx, height=ny))
    return planes


@pytest.mark.parametrize("shape", [(3, 5, 7, 9), (1, 6, 4, 3), (2, 2, 9, 5)])
def test_resampling_equals_map_coordinates_in_every_frame(shape):
    vol = Volume4D(voxels=np.random.default_rng(10).random(shape))
    t, nz, ny, nx = shape
    planes = _face_crossing_planes((nx, ny, nz))
    for p in planes:
        frames = extract_plane_sequence(vol, p).frames
        assert frames.shape == (t, p.height, p.width)
        for f in range(t):
            assert np.array_equal(frames[f], sample_plane(vol, p, f))
    assert not extract_plane_sequence(vol, planes[-2]).frames.any()
    assert np.array_equal(extract_plane_sequence(vol, planes[-1]).frames, vol.voxels[:, -1])


@pytest.mark.parametrize("shape", [(2, 3, 16, 17), (1, 6, 4, 3)])
def test_loaded_volume_resamples_as_its_float64_values(tmp_path, shape):
    """A volume resampled from its file's u8 codes or f32 values gives, bit
    for bit, map_coordinates' frames of the float64 values code / 255 or of
    those values. The 16 x 17 last slice holds every code, so a decode by
    * (1/255), which differs at 24 codes, or in float32 changes the frames
    of the last-slice plane."""
    t, nz, ny, nx = shape
    planes = _face_crossing_planes((nx, ny, nz))
    codes = ((np.arange(t * nz * ny * nx) * 7 + 3) % 256).astype(np.uint8)
    values = np.random.default_rng(12).random(codes.size).astype(np.float32)
    for dtype, payload, exact in (("u8", codes, codes / 255.0), ("f32", values, values)):
        header = write_raw_volume(tmp_path, dims=(nx, ny, nz), frames=t, dtype=dtype,
                                  payload=payload.tobytes())
        loaded = load_volume(str(header))
        reference = Volume4D(voxels=np.asarray(exact, np.float64).reshape(shape))
        for p in planes:
            frames = extract_plane_sequence(loaded, p).frames
            for f in range(t):
                assert np.array_equal(frames[f], sample_plane(reference, p, f))
    if ny * nx >= 256:
        exact = Volume4D(voxels=(codes / 255.0).reshape(shape))
        for broken in (codes * (1.0 / 255.0), (codes / np.float32(255.0)).astype(np.float64)):
            assert not np.array_equal(sample_plane(Volume4D(voxels=broken.reshape(shape)),
                                                   planes[-1], 0),
                                      sample_plane(exact, planes[-1], 0))


def _reference_synth_phantom(spec):
    """synth_phantom as it was first written: every mark's bounding box,
    plane coordinates and field recomputed for every frame."""
    rng = np.random.default_rng(spec.seed)
    gt = dict(spec.gt_planes) if spec.gt_planes else phantom._default_gt_planes(spec, rng)
    nx, ny, nz = spec.dims
    t_count = spec.n_frames
    vox = np.full((t_count, nz, ny, nx), phantom.BACKGROUND, dtype=np.float64)
    for k in range(spec.class_count):
        plane = gt[k]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        jitter = rng.uniform(-0.25, 0.25, size=2)
        shift = phantom._class_shift(k)
        freq = 1
        for b, primitive in enumerate(phantom.PATTERN_TEMPLATES[k]):
            if spec.abnormal and b == 0:
                primitive = phantom._perturb(primitive, k)
            for t in range(t_count):
                pulse = 0.7 + 0.3 * math.sin(2.0 * math.pi * freq * t / t_count + phase)
                _reference_add_primitive(vox[t], plane, primitive, jitter, pulse, shift)
    if spec.noise_sigma > 0:
        vox += rng.normal(0.0, spec.noise_sigma, size=vox.shape)
    np.clip(vox, 0.0, 1.0, out=vox)
    return vox


def _reference_add_primitive(grid, plane, primitive, jitter, pulse, shift):
    nz, ny, nx = grid.shape
    c = (np.asarray(plane.center) + shift[0] * np.asarray(plane.axis_u)
         + shift[1] * np.asarray(plane.axis_v))
    r = phantom.PATTERN_EXTENT + 4.0 * phantom.NORMAL_SIGMA
    x0, x1 = max(0, int(c[0] - r)), min(nx, int(c[0] + r) + 1)
    y0, y1 = max(0, int(c[1] - r)), min(ny, int(c[1] + r) + 1)
    z0, z1 = max(0, int(c[2] - r)), min(nz, int(c[2] + r) + 1)
    zz, yy, xx = np.meshgrid(np.arange(z0, z1), np.arange(y0, y1), np.arange(x0, x1),
                             indexing="ij")
    rel = np.stack([xx - c[0], yy - c[1], zz - c[2]], axis=-1)
    pu = rel @ np.asarray(plane.axis_u) - jitter[0]
    pv = rel @ np.asarray(plane.axis_v) - jitter[1]
    pn = rel @ plane.normal
    thick = pn ** 2 / (2 * phantom.NORMAL_SIGMA ** 2)
    kind = primitive[0]
    if kind == "blob":
        _, du, dv, sigma, amp = primitive
        val = amp * np.exp(-(((pu - du) ** 2 + (pv - dv) ** 2) / (2 * sigma ** 2) + thick))
    elif kind == "bar":
        _, du, dv, ls, ts, ang, amp = primitive
        a = (pu - du) * math.cos(ang) + (pv - dv) * math.sin(ang)
        b = -(pu - du) * math.sin(ang) + (pv - dv) * math.cos(ang)
        val = amp * np.exp(-(a ** 2 / (2 * ls ** 2) + b ** 2 / (2 * ts ** 2) + thick))
    else:
        _, radius, rs, amp, du, dv = primitive
        rad = np.sqrt((pu - du) ** 2 + (pv - dv) ** 2)
        val = amp * np.exp(-((rad - radius) ** 2 / (2 * rs ** 2) + thick))
    grid[z0:z1, y0:y1, x0:x1] += pulse * val


@pytest.mark.parametrize("abnormal", [False, True])
@pytest.mark.parametrize("dims, n_frames, seed", [((64, 64, 64), 8, 1), ((48, 48, 48), 6, 2)])
def test_phantom_matches_per_frame_reference(dims, n_frames, seed, abnormal):
    # the desk (64^3 x 8) and fit (48^3 x 6) benchmark sizes
    spec = PhantomSpec(abnormal=abnormal, seed=seed, dims=dims, n_frames=n_frames)
    vol, _ = synth_phantom(spec)
    assert np.array_equal(vol.voxels, _reference_synth_phantom(spec))


def _edge_planes():
    """Two class planes whose pattern boxes run past the volume's edges."""
    return {0: plane_from_center((58.0, 30.0, 6.0), (0.3, 0.5, 0.8), width=64, height=64),
            1: plane_from_center((4.0, 60.0, 33.0), (0.9, -0.2, 0.4), width=64, height=64)}


@pytest.mark.parametrize("dims, n_frames, seed, gt_planes", [
    ((64, 64, 64), 4, 3, _edge_planes()),
    ((64, 56, 72), 5, 4, None),
    ((40, 52, 33), 3, 5, None),
])
@pytest.mark.parametrize("abnormal", [False, True])
def test_phantom_slabs_match_reference_on_clipped_and_non_cubic_boxes(
        dims, n_frames, seed, gt_planes, abnormal):
    spec = PhantomSpec(class_count=2 if gt_planes else 3, abnormal=abnormal, seed=seed,
                       dims=dims, n_frames=n_frames, gt_planes=gt_planes)
    for k, plane in (gt_planes or {}).items():
        box = phantom._pattern_coords(dims[::-1], plane, phantom._class_shift(k), (0, 0))[0]
        assert min(s.stop - s.start for s in box) < 2 * phantom.PATTERN_EXTENT
    vol, _ = synth_phantom(spec)
    assert np.array_equal(vol.voxels, _reference_synth_phantom(spec))


@pytest.mark.parametrize("dims, seed, gt_planes", [
    ((64, 64, 64), 1, None), ((64, 56, 72), 4, None), ((40, 52, 33), 5, None),
    ((64, 64, 64), 3, _edge_planes())])
def test_pattern_coords_match_the_meshgrid_oracle(dims, seed, gt_planes):
    # every class's box, whole or clipped at the volume's edges
    spec = PhantomSpec(class_count=2 if gt_planes else 3, seed=seed, dims=dims,
                       gt_planes=gt_planes)
    _, gt = synth_phantom(spec)
    for k, plane in gt.items():
        args = (dims[::-1], plane, phantom._class_shift(k), (0.1, -0.2))
        got, want = phantom._pattern_coords(*args), pattern_coords_meshgrid(*args)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:], strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def chunked_phantoms():
    """(spec, reference voxels) of normal and abnormal phantoms of 1-3
    classes, each class count with and without noise; without noise each
    chunk is only clipped."""
    specs = [PhantomSpec(class_count=k, abnormal=abnormal, seed=6, noise_sigma=sigma,
                         dims=(48, 40, 44), n_frames=3)
             for k, abnormal, sigma in [(1, False, 0.05), (1, True, 0.0), (2, False, 0.0),
                                        (2, True, 0.05), (3, False, 0.0), (3, True, 0.05)]]
    return [(spec, _reference_synth_phantom(spec)) for spec in specs]


@pytest.mark.parametrize("slab_bytes, noise_chunk", [(1000, 1000), (1, 4099), (1 << 30, 1 << 30)])
def test_phantom_slab_and_noise_chunk_sizes_do_not_change_values(monkeypatch, chunked_phantoms,
                                                                 slab_bytes, noise_chunk):
    # one z-plane of a (3, z, 40, 48)-voxel box is 46 kB; 3 * 44 * 40 * 48
    # voxels divide by neither 1000 nor 4099
    monkeypatch.setattr(phantom, "SLAB_BYTES", slab_bytes)
    monkeypatch.setattr(phantom, "NOISE_CHUNK", noise_chunk)
    for spec, expected in chunked_phantoms:
        vol, _ = synth_phantom(spec)
        assert np.array_equal(vol.voxels, expected), spec


def test_phantom_sequence_pulsates():
    vol, gt = synth_phantom(PhantomSpec(class_count=1, noise_sigma=0.0, seed=2,
                                        dims=(48, 48, 48), n_frames=6))
    seq = extract_plane_sequence(vol, gt[0])
    mad = np.abs(np.diff(seq.frames, axis=0)).mean()
    assert mad > 0


def test_candidates_deterministic():
    a = generate_candidates((32, 32, 32), 50, seed=9, size=32)
    b = generate_candidates((32, 32, 32), 50, seed=9, size=32)
    assert a == b


def test_candidates_content_invariant():
    dims = np.zeros((1, 32, 32, 32))
    a = generate_candidates(Volume4D(voxels=dims).dims, 40, seed=1, size=32)
    b = generate_candidates(Volume4D(voxels=np.random.default_rng(0).random(dims.shape)).dims,
                            40, seed=1, size=32)
    assert a == b


def test_candidate_centers_inside_volume():
    for p in generate_candidates((56, 48, 40), 400, seed=0, size=48):
        c = p.center
        assert 0 <= c[0] <= 55 and 0 <= c[1] <= 47 and 0 <= c[2] <= 39


def test_candidate_orientations_distinct():
    cands = generate_candidates((32, 32, 32), 400, seed=0, size=32)
    normals = {tuple(np.round(p.normal, 12)) for p in cands}
    # 400 planes over 80 orientations x 5 offsets
    assert len(normals) == 80
    reps = [c for i, c in enumerate(cands) if i % 5 == 0]
    angles = [plane_angle(reps[i], reps[j])
              for i in range(len(reps)) for j in range(i + 1, len(reps))]
    assert min(angles) > 0


def test_candidate_capacity_error():
    with pytest.raises(VolumeError, match=str(CANDIDATE_CAPACITY)):
        generate_candidates((32, 32, 32), CANDIDATE_CAPACITY + 1, seed=0, size=32)


def test_plane_params_validation():
    with pytest.raises(VolumeError):
        PlaneParams(origin=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(1, 0, 0))
    with pytest.raises(VolumeError):
        PlaneParams(origin=(0, 0, 0), axis_u=(2, 0, 0), axis_v=(0, 1, 0))


def test_plane_params_equality_and_hash_ignore_the_cached_normal_and_center():
    a = plane_from_center((20.0, 21.0, 22.0), (0.2, -0.4, 0.9), width=32, height=24)
    b = PlaneParams(origin=a.origin, axis_u=a.axis_u, axis_v=a.axis_v, width=32, height=24)
    before = hash(a)
    assert a == b and hash(b) == before
    normal, center = a.normal, a.center
    assert a.normal is normal and a.center is center
    assert a == b and hash(a) == hash(b) == before
    assert np.array_equal(b.normal, normal) and np.array_equal(b.center, center)
    # every reader gets the one cached array, so none may write to it
    for cached in (a.normal, a.center):
        with pytest.raises(ValueError):
            cached *= -1.0
    assert np.array_equal(a.normal, b.normal) and np.array_equal(a.center, b.center)
    assert a == b and hash(a) == before


def test_phantom_deterministic():
    spec = PhantomSpec(class_count=2, noise_sigma=0.05, seed=12,
                       dims=(40, 40, 40), n_frames=4)
    v1, g1 = synth_phantom(spec)
    v2, g2 = synth_phantom(spec)
    assert np.array_equal(v1.voxels, v2.voxels)
    assert g1 == g2


def test_phantom_gt_plane_shows_pattern():
    vol, gt = synth_phantom(PhantomSpec(class_count=1, noise_sigma=0.0, seed=3,
                                        dims=(64, 64, 64), n_frames=4))
    seq = extract_plane_sequence(vol, gt[0])
    # the ground-truth plane carries substantial bright structure
    assert seq.frames[0].max() > 0.4
    from planefinder.phantom import BACKGROUND
    off_plane = plane_from_center(np.asarray(gt[0].center) + 15.0 * gt[0].normal,
                                  gt[0].normal, width=gt[0].width,
                                  height=gt[0].height)
    far = extract_plane_sequence(vol, off_plane)
    assert far.frames[0].max() < seq.frames[0].max()


def test_phantom_abnormal_differs_locally():
    base = dict(class_count=1, noise_sigma=0.0, seed=8, dims=(64, 64, 64), n_frames=3)
    v_norm, gt = synth_phantom(PhantomSpec(abnormal=False, **base))
    v_abn, _ = synth_phantom(PhantomSpec(abnormal=True, **base))
    diff = np.abs(v_abn.voxels - v_norm.voxels)
    assert diff.max() > 0.05
    # differences confined to the pattern neighborhood of the ground truth plane
    changed = np.argwhere(diff[0] > 1e-12)
    center = np.asarray(gt[0].center)  # (x, y, z)
    dist = np.abs(changed[:, ::-1] - center[None, :]).max(axis=1)
    from planefinder.phantom import NORMAL_SIGMA, PATTERN_EXTENT, PATTERN_SHIFT
    assert dist.max() <= PATTERN_SHIFT + PATTERN_EXTENT + 4 * NORMAL_SIGMA + 1


def test_phantom_class_count_limit():
    with pytest.raises(VolumeError):
        PhantomSpec(class_count=99)
