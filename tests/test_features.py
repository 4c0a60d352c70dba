import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oracles import (contrast_pixels_nonzero, describe_spacetime_full_stack,
                     gradient_bins_hypot, harris_maxima_clipped,
                     sequence_descriptors_per_describer)
from planefinder import features, pipeline
from planefinder.config import PipelineConfig
from planefinder.features import (SPACETIME_DESCRIPTOR_DIM, STATIC_DESCRIPTOR_DIM,
                                  FeatureError, _frame_samples, _gaussian_nearest,
                                  _gradient_bins, _harris_response, _mod_turn,
                                  _octave_extrema, _orientations, _static_histograms,
                                  describe_spacetime, describe_static,
                                  detect_spacetime_points, detect_static_keypoints,
                                  frame_gradients)
from planefinder.phantom import PhantomSpec, synth_phantom
from planefinder.smoothing import smooth_sequence
from planefinder.volume import Volume4D, extract_plane_sequence


def blob_image(centers, sigma=2.5, amp=1.0, size=64):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cx, cy in centers:
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
    return img


@pytest.mark.parametrize("shape, sigmas", [
    ((5, 24, 20), (4.0, 2.0, 2.0)),
    ((6, 24, 24), (4.0, 4.0, 4.0)),
    ((8, 64, 64), (4.0, 2.0, 2.0)),
    ((2, 8, 16, 16), (2.0, 4.0, 4.0)),
    ((16, 16), (5.08, 5.08)),
    ((16, 12), (1.6, 3.2)),
])
def test_gaussian_operator_matches_ndimage(shape, sigmas):
    # on time axes shorter than the 4-sigma kernel radius, and on a 16 px
    # octave, most of each kernel falls on the replicated edge values
    arr = np.random.default_rng(3).random(shape)
    full = (0.0,) * (arr.ndim - len(sigmas)) + sigmas
    expected = ndimage.gaussian_filter(arr, full, mode="nearest")
    assert np.abs(_gaussian_nearest(arr, sigmas) - expected).max() <= 1e-12


@pytest.mark.parametrize("shape, sigmas", [
    ((8, 64, 64), (4.0, 2.0, 2.0)),
    ((2, 8, 16, 16), (2.0, 4.0, 4.0)),
    ((16, 12), (1.6, 3.2)),
])
def test_gaussian_nearest_float32_tracks_float64_filter(shape, sigmas):
    arr = np.random.default_rng(3).random(shape)
    full = (0.0,) * (arr.ndim - len(sigmas)) + sigmas
    expected = ndimage.gaussian_filter(arr, full, mode="nearest")
    got = _gaussian_nearest(arr.astype(np.float32), sigmas)
    assert got.dtype == np.float32
    assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()


def test_small_image_rejected():
    # frames under 32 pixels on a side, and an image that is not a stack
    for frames in (np.zeros((2, 16, 16)), np.zeros((2, 64, 16)), np.zeros((64, 64))):
        with pytest.raises(FeatureError):
            detect_static_keypoints(frames)


def test_flat_image_no_keypoints():
    kps = detect_static_keypoints(np.full((3, 64, 64), 0.5))
    assert kps.shape == (0, 5) and kps.dtype == np.float64


def test_blob_detected_near_center():
    img = blob_image([(20, 28)])
    kps = detect_static_keypoints(img[None])
    assert len(kps) >= 1
    assert np.hypot(kps[:, 0] - 20, kps[:, 1] - 28).min() <= 2.0


def test_two_blobs_two_locations():
    img = blob_image([(16, 16), (46, 44)])
    kps = detect_static_keypoints(img[None])
    for cx, cy in ((16, 16), (46, 44)):
        assert np.hypot(kps[:, 0] - cx, kps[:, 1] - cy).min() <= 2.0


def test_straight_edge_rejected():
    # a pure step edge has a degenerate curvature ratio and yields no points
    img = np.zeros((64, 64))
    img[:, 32:] = 1.0
    kps = detect_static_keypoints(img[None])
    assert np.all(np.abs(kps[:, 0] - 31.5) > 3)


def test_low_contrast_blob_filtered(monkeypatch):
    img = blob_image([(32, 32)], amp=0.02)
    assert detect_static_keypoints(img[None]).shape == (0, 5)
    # the threshold is read at call time
    monkeypatch.setattr(features, "CONTRAST_THRESHOLD", 0.001)
    kps = detect_static_keypoints(img[None])
    assert np.hypot(kps[:, 0] - 32, kps[:, 1] - 32).min() <= 2.0


def test_descriptor_shape_and_norm():
    img = blob_image([(20, 28)])
    kps = detect_static_keypoints(img[None])
    descs = [d for d in describe_static(frame_gradients(img[None]), kps) if not d.degenerate]
    assert descs
    for d in descs:
        assert d.values.shape == (STATIC_DESCRIPTOR_DIM,)
        assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)
        assert d.values.min() >= 0.0


def test_descriptor_brightness_invariant():
    img = blob_image([(24, 30)])
    kps = detect_static_keypoints(img[None])
    d1 = describe_static(frame_gradients(img[None]), kps)
    d2 = describe_static(frame_gradients(img[None] + 0.2), kps)
    for a, b in zip(d1, d2):
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_descriptor_contrast_invariant():
    img = blob_image([(24, 30)])
    kps = detect_static_keypoints(img[None])
    d1 = describe_static(frame_gradients(img[None]), kps)
    d2 = describe_static(frame_gradients(3.0 * img[None]), kps)
    for a, b in zip(d1, d2):
        assert np.allclose(a.values, b.values, atol=1e-9)


def test_descriptor_flat_patch_degenerate():
    frames = np.full((1, 64, 64), 0.5)
    (d,) = describe_static(frame_gradients(frames), np.array([[32.0, 32.0, 0.0, 1.6, 0.0]]))
    assert d.degenerate
    assert np.all(d.values == 0.0)


def test_static_descriptor_t_outside_stack():
    frames = np.random.default_rng(4).random((2, 64, 64))
    for t in (-1.0, 2.0, 0.5):
        with pytest.raises(FeatureError):
            describe_static(frame_gradients(frames), np.array([[32.0, 32.0, t, 1.6, 0.0]]))


def test_descriptor_rotation_covariant():
    # rotating the image by 90 degrees leaves the oriented descriptor close
    img = blob_image([(22, 30)], sigma=3.0) + blob_image([(28, 30)], sigma=1.5, amp=0.6)
    rot = np.rot90(img).copy()
    kps = detect_static_keypoints(img[None])
    kps_r = detect_static_keypoints(rot[None])
    assert len(kps) and len(kps_r)
    d = describe_static(frame_gradients(img[None]), kps[:1])[0].values
    best = max(float(d @ e.values) for e in describe_static(frame_gradients(rot[None]), kps_r))
    assert best > 0.8


def test_spacetime_needs_five_frames():
    frames = np.zeros((4, 48, 48))
    with pytest.raises(FeatureError):
        detect_spacetime_points(frames)


def test_static_sequence_no_spacetime_points():
    frame = blob_image([(20, 20), (36, 30)], size=48)
    pts = detect_spacetime_points(np.stack([frame] * 6))
    assert pts.shape == (0, 5) and pts.dtype == np.float64


def test_pulsating_blob_detected():
    size, t_count = 48, 8
    frames = np.stack([
        blob_image([(24, 24)], sigma=3.0, size=size,
                   amp=0.6 + 0.4 * math.sin(2 * math.pi * t / t_count))
        for t in range(t_count)])
    pts = detect_spacetime_points(frames)
    assert len(pts)
    assert np.hypot(pts[:, 0] - 24, pts[:, 1] - 24).min() <= 4.0


def test_spacetime_descriptor_shape_and_norm():
    size, t_count = 48, 8
    frames = np.stack([
        blob_image([(24, 24)], sigma=3.0, size=size,
                   amp=0.6 + 0.4 * math.sin(2 * math.pi * t / t_count))
        for t in range(t_count)])
    pts = detect_spacetime_points(frames)
    descs = [d for d in describe_spacetime(frame_gradients(frames), pts) if not d.degenerate]
    assert descs
    for d in descs:
        assert d.values.shape == (SPACETIME_DESCRIPTOR_DIM,)
        assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)


def test_spacetime_descriptor_flat_degenerate():
    frames = np.full((6, 48, 48), 0.3)
    (d,) = describe_spacetime(frame_gradients(frames), np.array([[24.0, 24.0, 3.0, 2.0, 2.0]]))
    assert d.degenerate


def test_spacetime_descriptor_window_outside():
    frames = np.zeros((6, 48, 48))
    with pytest.raises(FeatureError):
        describe_spacetime(frame_gradients(frames), np.array([[500.0, 24.0, 3.0, 2.0, 2.0]]))


def test_spacetime_inplane_gradient_hits_middle_elevation():
    # frames constant in t, ramp in x: all gradient energy is in-plane and
    # points along +x, so only azimuth bin 0 of the middle elevation fires
    ramp = np.tile(np.linspace(0, 1, 48), (48, 1))
    frames = np.stack([ramp] * 6)
    (d,) = describe_spacetime(frame_gradients(frames), np.array([[24.0, 24.0, 3.0, 2.0, 1.0]]))
    hist = d.values.reshape(8, 24)  # (cells, elevation*azimuth)
    nz = np.nonzero(hist.sum(axis=0))[0]
    assert nz.tolist() == [1 * 8 + 0]


def test_spacetime_temporal_gradient_hits_top_elevation():
    frames = np.stack([np.full((48, 48), t / 5.0) for t in range(6)])
    (d,) = describe_spacetime(frame_gradients(frames), np.array([[24.0, 24.0, 3.0, 2.0, 1.0]]))
    hist = d.values.reshape(8, 24)
    nz = np.nonzero(hist.sum(axis=0))[0]
    assert all(b >= 2 * 8 for b in nz)


def _reference_bilinear(field, x, y):
    """The hand-written bilinear sampler static descriptors used to call."""
    ny, nx = field.shape
    x0 = np.clip(np.floor(x).astype(int), 0, nx - 2)
    y0 = np.clip(np.floor(y).astype(int), 0, ny - 2)
    fx = np.clip(x - x0, 0.0, 1.0)
    fy = np.clip(y - y0, 0.0, 1.0)
    v00 = field[y0, x0]
    v01 = field[y0, x0 + 1]
    v10 = field[y0 + 1, x0]
    v11 = field[y0 + 1, x0 + 1]
    return (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
            + v10 * (1 - fx) * fy + v11 * fx * fy)


def _reference_static_descriptor(img, kp, n_samples=16, sample=_reference_bilinear):
    """describe_static's descriptor for one keypoint row (x, y, t, scale,
    orientation) of the frame img, one keypoint at a time, sampling the
    gradients with `sample` at clipped coordinates; None where it is
    degenerate."""
    x, y, _, scale, orientation = map(float, kp)
    gy, gx = np.gradient(img)
    ny, nx = img.shape
    half_width = 8.0 * scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * scale
    su, sv = np.meshgrid(lin, lin)
    px = x + su * math.cos(orientation) - sv * math.sin(orientation)
    py = y + su * math.sin(orientation) + sv * math.cos(orientation)
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    cx, cy = np.clip(px, 0, nx - 1), np.clip(py, 0, ny - 1)
    vx = np.where(inside, sample(gx, cx, cy), 0.0)
    vy = np.where(inside, sample(gy, cx, cy), 0.0)
    mag = np.hypot(vx, vy)
    if float((mag ** 2).sum()) < features.DEGENERATE_ENERGY:
        return None
    ang = np.mod(np.arctan2(vy, vx) - orientation, 2.0 * math.pi)
    obin = np.minimum((ang / (2.0 * math.pi) * 8).astype(int), 7)
    cell_r = np.minimum(np.arange(n_samples) * 4 // n_samples, 3)
    cell = cell_r[:, None] * 4 + cell_r[None, :]
    weight = mag * np.exp(-(su ** 2 + sv ** 2) / (2.0 * half_width ** 2))
    hist = np.zeros((16, 8))
    np.add.at(hist, (cell.ravel(), obin.ravel()), weight.ravel())
    vec = hist.ravel() / np.linalg.norm(hist)
    vec = np.minimum(vec, 0.2)
    return vec / np.linalg.norm(vec)


def test_static_descriptor_matches_bilinear_reference():
    rng = np.random.default_rng(11)
    img = blob_image([(20, 30), (45, 12), (50, 50)]) + 0.05 * rng.random((64, 64))
    # the keypoints lie in frame 1; frame 0 holds other gradients
    frames = np.stack([rng.random((64, 64)), img])
    # orientation 0 at scale 1 puts samples on half-integer offsets, so the
    # first two patches have rows and columns at exactly 0 and at exactly 63
    kps = np.vstack([[7.5, 7.5, 1.0, 1.0, 0.0], [55.5, 55.5, 1.0, 1.0, 0.0],
                     np.column_stack((rng.uniform(0, 63, 12), rng.uniform(0, 63, 12),
                                      np.ones(12), rng.uniform(1.0, 4.0, 12),
                                      rng.uniform(0, 2 * math.pi, 12)))])
    for kp, d in zip(kps, describe_static(frame_gradients(frames), kps)):
        assert not d.degenerate
        assert np.abs(d.values - _reference_static_descriptor(img, kp)).max() <= 1e-15


# One-point-at-a-time references: the per-pixel filters and per-point loops
# the feature path used before it gathered only the pixels and windows it
# needs. The array paths must match them exactly, not to a tolerance.

def _reference_octave_extrema(dogs, gaussians, octave, contrast_threshold):
    factor = 2.0 ** octave
    maxf = ndimage.maximum_filter(dogs, size=3, mode="nearest")
    minf = ndimage.minimum_filter(dogs, size=3, mode="nearest")
    found = []
    for level in range(1, features.SCALES_PER_OCTAVE + 1):
        d = dogs[level]
        is_ext = ((d == maxf[level]) | (d == minf[level])) & (np.abs(d) >= contrast_threshold)
        is_ext[:2, :] = is_ext[-2:, :] = False
        is_ext[:, :2] = is_ext[:, -2:] = False
        ys, xs = np.nonzero(is_ext)
        if ys.size == 0:
            continue
        dxx = d[ys, xs + 1] + d[ys, xs - 1] - 2 * d[ys, xs]
        dyy = d[ys + 1, xs] + d[ys - 1, xs] - 2 * d[ys, xs]
        dxy = 0.25 * (d[ys + 1, xs + 1] - d[ys + 1, xs - 1]
                      - d[ys - 1, xs + 1] + d[ys - 1, xs - 1])
        tr = dxx + dyy
        det = dxx * dyy - dxy * dxy
        edge_ok = (det > 0) & (tr * tr / np.where(det > 0, det, 1.0)
                               < (features.EDGE_RATIO + 1.0) ** 2 / features.EDGE_RATIO)
        sigma = features.SIGMA0 * 2.0 ** (octave + level / features.SCALES_PER_OCTAVE)
        for y, x in zip(ys[edge_ok], xs[edge_ok]):
            ori = _reference_orientation(gaussians[level], x, y, features.SIGMA0
                                         * 2.0 ** (level / features.SCALES_PER_OCTAVE))
            if ori is not None:
                found.append((float(x) * factor, float(y) * factor, sigma, ori))
    return np.array(found).reshape(-1, 4)


def _reference_orientation(img, x, y, sigma, n_bins=36):
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    ny, nx = img.shape
    y0, y1 = max(1, y - radius), min(ny - 1, y + radius + 1)
    x0, x1 = max(1, x - radius), min(nx - 1, x + radius + 1)
    # differences in the image's precision (float32 DoG levels), then float64
    gy, gx = np.gradient(img[y0 - 1:y1 + 1, x0 - 1:x1 + 1])
    gy = gy[1:-1, 1:-1].astype(np.float64)
    gx = gx[1:-1, 1:-1].astype(np.float64)
    mag = np.hypot(gx, gy)
    if mag.sum() < features.DEGENERATE_ENERGY:
        return None
    ang = np.mod(np.arctan2(gy, gx), 2.0 * math.pi)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    w = np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2.0 * (1.5 * sigma) ** 2))
    hist = np.zeros(n_bins)
    bins = np.minimum((ang / (2.0 * math.pi) * n_bins).astype(int), n_bins - 1)
    np.add.at(hist, bins.ravel(), (mag * w).ravel())
    return (int(np.argmax(hist)) + 0.5) * 2.0 * math.pi / n_bins


def _reference_spacetime_points(frames):
    frames = np.asarray(frames, dtype=np.float64)
    points = []
    for sigma_s, sigma_t in features.SPACETIME_SCALES:
        response = features._harris_response(frames, (sigma_t, sigma_s, sigma_s),
                                             features.HARRIS_K)
        threshold = max(float(response.mean() + 3.0 * response.std()), 1e-18)
        local_max = response == ndimage.maximum_filter(response, size=3, mode="nearest")
        mask = local_max & (response >= threshold) & (response > 0)
        mask[:, :2, :] = mask[:, -2:, :] = False
        mask[:, :, :2] = mask[:, :, -2:] = False
        points += [(float(x), float(y), float(t), sigma_s, sigma_t)
                   for t, y, x in zip(*np.nonzero(mask))]
    return np.array(points).reshape(-1, 5)


def _reference_spacetime_descriptor(frames, pt):
    """Values of the descriptor of one point row (x, y, t, sigma_s, sigma_t),
    or None where it is degenerate."""
    x, y, t, sigma_s, sigma_t = map(float, pt)
    gt, gy, gx = np.gradient(frames)
    t_count, ny, nx = frames.shape
    rs = max(2, int(round(3.0 * sigma_s)))
    rt = max(1, int(round(3.0 * sigma_t)))
    cx, cy, ct = int(round(x)), int(round(y)), int(round(t))
    x0, y0, t0 = cx - rs, cy - rs, ct - rt
    tt, yy, xx = np.meshgrid(np.arange(t0, ct + rt + 1), np.arange(y0, cy + rs + 1),
                             np.arange(x0, cx + rs + 1), indexing="ij")
    inside = ((xx >= 0) & (xx < nx) & (yy >= 0) & (yy < ny)
              & (tt >= 0) & (tt < t_count))
    idx = (np.clip(tt, 0, t_count - 1), np.clip(yy, 0, ny - 1), np.clip(xx, 0, nx - 1))
    vx, vy, vt = (np.where(inside, g[idx], 0.0) for g in (gx, gy, gt))
    mag = np.sqrt(vx ** 2 + vy ** 2 + vt ** 2)
    if float((mag ** 2).sum()) < features.DEGENERATE_ENERGY:
        return None
    azim = np.mod(np.arctan2(vy, vx), 2.0 * math.pi)
    elev = np.arctan2(vt, np.hypot(vx, vy))
    abin = np.minimum((azim / (2.0 * math.pi) * 8).astype(int), 7)
    ebin = np.minimum(((elev + math.pi / 2) / math.pi * 3).astype(int), 2)
    cell_x = ((xx - x0) * 2 // (2 * rs + 1)).clip(0, 1)
    cell_y = ((yy - y0) * 2 // (2 * rs + 1)).clip(0, 1)
    cell_t = ((tt - t0) * 2 // (2 * rt + 1)).clip(0, 1)
    hist = np.zeros((2, 2, 2, 24))
    np.add.at(hist, (cell_t.ravel(), cell_y.ravel(), cell_x.ravel(),
                     (ebin * 8 + abin).ravel()), mag.ravel())
    vec = hist.ravel()
    return vec / np.linalg.norm(vec)


def _quantized(rng, shape, levels, p=None):
    """Random values drawn from a few levels, so that neighbours tie often."""
    return rng.choice(np.asarray(levels, dtype=np.float64), size=shape, p=p)


def _with_t(rows_per_frame):
    """Per-frame (n, 4) rows (x, y, scale, orientation) joined frame by frame
    into (n, 5) rows (x, y, t, scale, orientation)."""
    return np.concatenate([np.insert(rows, 2, t, axis=1)
                           for t, rows in enumerate(rows_per_frame)])


def test_octave_extrema_match_filter_reference():
    # three frames: the first with plateaus, ties and border extrema, a flat
    # one, and one drawn apart, so that no neighbourhood may cross a frame
    rng = np.random.default_rng(5)
    gaussians = rng.random((3, 6, 32, 32))
    gaussians[0, :, 20:, :12] = 0.25  # flat: windows there are degenerate
    gaussians[1] = 0.25
    dogs = _quantized(rng, (3, 5, 32, 32), [-0.06, -0.03, 0.0, 0.03, 0.06])
    dogs[1] = 0.0
    first = dogs[0]
    first[:, 8:16, 8:16] = 0.05  # a plateau above threshold: max and min tie
    first[2, 10, 10] = 0.08
    first[2, 9:12:2, 9:12:2] = 0.08  # a peak tied with its diagonal neighbours
    for y, x in ((2, 2), (2, 29), (29, 2), (29, 29), (2, 16), (16, 29)):
        first[1:4, y, x] = (0.2, 0.3, 0.2)  # extrema next to the 2-pixel border
    for octave in (0, 2):
        expected = _with_t(_reference_octave_extrema(dogs[t], gaussians[t], octave, 0.03)
                           for t in range(3))
        # level by level (the scale column), each level frame by frame
        expected = expected[np.argsort(expected[:, 3], kind="stable")]
        assert np.array_equal(_octave_extrema(dogs, gaussians, octave, 0.03), expected)
    found = {(y, x) for x, y, t, _, _ in expected if t == 0}
    assert len(found) > 50 and set(expected[:, 2]) == {0.0, 2.0}
    assert (40.0, 40.0) in found  # 4 x (10, 10), the tied peak
    assert {(8.0, 8.0), (8.0, 116.0), (116.0, 8.0), (116.0, 116.0)} <= found
    # raising the threshold past every value leaves nothing to gather
    assert _octave_extrema(dogs, gaussians, 0, 1.0).shape == (0, 5)


@pytest.mark.parametrize("size, sigma", [(16, 3.2), (24, 2.016), (40, 2.54)])
def test_orientations_match_reference_at_every_pixel(size, sigma):
    # windows of radius 9-14 are clipped by every edge of these images
    rng = np.random.default_rng(size)
    img = blob_image([(size / 3, size / 2)], sigma=3.0, size=size) + 0.1 * rng.random((size, size))
    img[:size // 2, :size // 2] = 0.5  # flat corner: degenerate windows at 40 px
    # a flat frame between two busy ones, in float64 and in the float32 of
    # the DoG levels
    frames = np.stack([img, np.full((size, size), 0.5), img[::-1, ::-1].T])
    ts, ys, xs = np.mgrid[0:3, 2:size - 2, 2:size - 2].reshape(3, -1)
    for frames in (frames, frames.astype(np.float32)):
        ori, ok = _orientations(frames, ts, ys, xs, sigma)
        expected = [_reference_orientation(frames[t], x, y, sigma)
                    for t, y, x in zip(ts, ys, xs)]
        assert ok.tolist() == [e is not None for e in expected]
        assert ori[ok].tolist() == [e for e in expected if e is not None]
        assert ok[ts != 1].any() and not ok[ts == 1].any()


def test_spacetime_points_match_filter_reference(monkeypatch):
    rng = np.random.default_rng(8)
    size, t_count = 32, 6
    frames = np.stack([
        blob_image([(12, 14)], sigma=2.0, size=size, amp=0.6 + 0.4 * math.cos(t))
        + blob_image([(24, 20)], sigma=3.0, size=size, amp=0.5 + 0.5 * math.sin(2 * t))
        for t in range(t_count)]) + 0.02 * rng.random((t_count, size, size))
    assert np.array_equal(detect_spacetime_points(frames), _reference_spacetime_points(frames))
    # responses from a few levels: plateaus, ties and maxima at t = 0 and
    # t = T - 1, where the neighbourhood is clipped in t
    # (the threshold, mean + 3 std, falls between 1 and 2, so a kept 2 must
    # have no 3 among its neighbours)
    responses = _quantized(rng, (t_count, size, size), [-1.0, 0.0, 1.0, 2.0, 3.0],
                           p=[0.03, 0.9, 0.03, 0.02, 0.02])
    monkeypatch.setattr(features, "_harris_response", lambda *args: responses)
    monkeypatch.setattr(features, "SPACETIME_SCALES", ((2.0, 2.0),))
    points = detect_spacetime_points(frames)
    assert np.array_equal(points, _reference_spacetime_points(frames))
    assert {0.0, t_count - 1.0} <= set(points[:, 2])
    x, y, t = points[:, :3].astype(int).T
    assert {2.0, 3.0} <= set(responses[t, y, x])


def _spacetime_cases():
    rng = np.random.default_rng(21)
    t_count, ny, nx = 6, 24, 20
    frames = rng.random((t_count, ny, nx))
    frames[:, :, 8:] = 0.4  # flat in x >= 8: degenerate sigma_s = 2 windows there
    frames[:, 12:, 8:] += 1e-4 * np.arange(12)  # but for a faint ramp in y >= 12
    points = np.array([(x, y, t, ss, st)
                       for x, y, t in ((0.0, 0.0, 0.0), (19.0, 23.0, 5.0), (10.4, 11.6, 2.5),
                                       (-3.0, 12.0, 3.0), (5.0, 26.0, 7.0), (17.6, 12.0, 1.0),
                                       (18.0, 4.0, 4.0), (9.0, 12.0, -2.0))
                       for ss, st in features.SPACETIME_SCALES])
    return frames, points


def test_spacetime_descriptors_match_reference():
    # windows crossing t = 0, t = T - 1 and every image edge, at all scales
    frames, points = _spacetime_cases()
    got = describe_spacetime(frame_gradients(frames), points)
    expected = [_reference_spacetime_descriptor(frames, pt) for pt in points]
    assert [d.degenerate for d in got] == [e is None for e in expected]
    assert 0 < sum(e is None for e in expected) < len(points)
    for d, e in zip(got, expected):
        assert np.array_equal(d.values, np.zeros(SPACETIME_DESCRIPTOR_DIM) if e is None else e)
    # alone, a point's window is cut to the t-offsets that reach the
    # sequence from its own centre, mostly on one side of it
    for pt, d in zip(points, got):
        (alone,) = describe_spacetime(frame_gradients(frames), pt[None])
        assert alone.degenerate == d.degenerate and np.array_equal(alone.values, d.values)


def test_spacetime_descriptors_one_point_blocks(monkeypatch):
    frames, points = _spacetime_cases()
    whole = describe_spacetime(frame_gradients(frames), points)
    monkeypatch.setattr(features, "SPACETIME_BLOCK_BYTES", 1)
    for a, b in zip(whole, describe_spacetime(frame_gradients(frames), points)):
        assert a.degenerate == b.degenerate
        assert np.array_equal(a.values, b.values)


def test_spacetime_windows_shorter_than_the_sequence_match_reference(monkeypatch):
    # 16 frames: a sigma_t = 2 window (13 frames) is cut to the sequence at
    # t = 0, 1, 14 and 15, and a sigma_t = 4 one (25 frames) takes all 16
    rng = np.random.default_rng(16)
    frames = rng.random((16, 24, 20))
    frames[:, :, 12:] = 0.4  # flat in x >= 12: degenerate windows there
    points = np.array([(x, y, t, ss, st) for x, y in ((4.0, 5.0), (19.0, 12.0))
                       for t in (0.0, 1.0, 14.0, 15.0) for ss, st in features.SPACETIME_SCALES])
    expected = [_reference_spacetime_descriptor(frames, pt) for pt in points]
    assert 0 < sum(e is None for e in expected) < len(points)
    for block_bytes in (features.SPACETIME_BLOCK_BYTES, 1):
        monkeypatch.setattr(features, "SPACETIME_BLOCK_BYTES", block_bytes)
        got = describe_spacetime(frame_gradients(frames), points)
        assert [d.degenerate for d in got] == [e is None for e in expected]
        for d, e in zip(got, expected):
            assert np.array_equal(d.values,
                                  np.zeros(SPACETIME_DESCRIPTOR_DIM) if e is None else e)


def _bins_match_hypot_reference(gt, gy, gx):
    mag, code = _gradient_bins(gt, gy, gx)
    ref_mag, ref_code = gradient_bins_hypot(gt, gy, gx)
    assert np.array_equal(mag, ref_mag) and np.array_equal(code, ref_code)
    assert code.dtype == np.uint8


def test_gradient_bins_match_hypot_reference_on_random_stacks():
    rng = np.random.default_rng(4)
    frames = rng.random((8, 32, 24))
    for stack in (frames, frames.astype(np.float32).astype(np.float64)):
        _bins_match_hypot_reference(*np.gradient(stack))


def test_gradient_bins_match_hypot_reference_on_crafted_gradients():
    rng = np.random.default_rng(6)
    signed = (-0.0, 0.0, 1.0, -1.0)
    cases = [np.array(np.meshgrid(signed, signed, signed)).reshape(3, -1)]
    # gx == +-gy, on the azimuth bin edges, and gy == +-0 with gx < 0, where
    # arctan2 is +-pi
    r = rng.uniform(0.1, 10.0, 40)
    for sy in (1.0, -1.0):
        for sx in (1.0, -1.0):
            cases.append(np.array([rng.normal(size=40), sy * r, sx * r]))
    cases.append(np.array([rng.normal(size=4), [0.0, -0.0, 0.0, -0.0], [-1.0, -1.0, -2.0, -3.0]]))
    # gt at +-r tan(pi/6) and its next doubles either side, on the elevation
    # bin edges, where sqrt(gx**2 + gy**2) and hypot(gx, gy) can split a bin
    gx, gy = rng.normal(size=(2, 200))
    edge = np.hypot(gx, gy) * math.tan(math.pi / 6)
    gt, up, down = [edge], edge, edge
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        gt += [up, down]
    for g in gt:
        for s in (1.0, -1.0):
            cases.append(np.array([s * g, gy, gx]))
    # squares that underflow, and that overflow
    for scale in (1e-160, 1e-170, 1e200):
        cases.append(scale * rng.normal(size=(3, 40)))
    gt, gy, gx = np.concatenate(cases, axis=1)
    with np.errstate(over="ignore"):
        v = (np.arctan2(gt, np.sqrt(gx ** 2 + gy ** 2)) + math.pi / 2) / math.pi * 3
        # without the np.hypot fallback some of these would change bin
        assert (v.astype(int) != ((np.arctan2(gt, np.hypot(gx, gy)) + math.pi / 2)
                                  / math.pi * 3).astype(int)).any()
        _bins_match_hypot_reference(gt, gy, gx)


def test_mod_turn_is_np_mod():
    # -2 pi, just below it, -pi and -0.0, and angles across (-4 pi, 2 pi)
    two_pi = 2.0 * math.pi
    ang = np.concatenate([[-two_pi, np.nextafter(-two_pi, -np.inf), -math.pi, -0.0, 0.0],
                          np.random.default_rng(2).uniform(-2.0 * two_pi, two_pi, 10000)])
    got, want = _mod_turn(ang), np.mod(ang, two_pi)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_static_histograms_wrap_as_np_mod():
    # arctan2(-1e-300, -1) is -pi, so orientations pi, two doubles above pi
    # and 0 put every sample's angle at -2 pi, at the double below -2 pi and
    # at -pi
    gx, gy = np.full((1, 40, 40), -1.0), np.full((1, 40, 40), -1e-300)
    oris = (math.pi, np.nextafter(np.nextafter(math.pi, 4.0), 4.0), 0.0)
    vals, ok = _static_histograms(gx, gy, np.array([[20.0, 20.0, 0.0, 1.0, o] for o in oris]))
    expected = [min(int(np.mod(math.atan2(-1e-300, -1.0) - o, 2.0 * math.pi)
                        / (2.0 * math.pi) * 8), 7) for o in oris]
    assert ok.all() and expected == [0, 7, 4]
    for row, b in zip(vals, expected):
        assert np.flatnonzero(row.reshape(16, 8).any(axis=0)).tolist() == [b]


def _map_coordinates_nearest(field, x, y):
    return ndimage.map_coordinates(field, (y, x), order=1, mode="nearest")


def _assert_static_descriptors_match(frames, kps, got):
    """got equals the per-point reference on each keypoint's frame, bit for
    bit, with all-zero values where the reference finds it degenerate."""
    assert len(got) == len(kps)
    for kp, d in zip(kps, got):
        expected = _reference_static_descriptor(frames[int(kp[2])], kp,
                                                 sample=_map_coordinates_nearest)
        assert d.degenerate == (expected is None)
        assert np.array_equal(d.values,
                              np.zeros(STATIC_DESCRIPTOR_DIM) if expected is None else expected)


def test_static_descriptors_match_per_point_reference():
    rng = np.random.default_rng(13)
    img = blob_image([(20, 30), (45, 12)]) + 0.05 * rng.random((64, 64))
    img[40:, 40:] = 0.3  # flat: degenerate patches
    frames = np.stack([img, img[::-1].copy()])
    # patches partly outside the frame, at every edge and corner, in both frames
    kps = np.array([(x, y, t, s, o)
                    for x, y in ((0.0, 0.0), (63.0, 63.0), (2.5, 40.0), (60.0, 3.0),
                                 (55.0, 55.0), (32.0, 32.0))
                    for t in (0.0, 1.0)
                    for s, o in ((1.6, 0.0), (3.2, 2.0), (6.4, 4.5))])
    got = describe_static(frame_gradients(frames), kps)
    degenerate = [d.degenerate for d in got]
    assert any(degenerate) and not all(degenerate)
    _assert_static_descriptors_match(frames, kps, got)


def _per_frame_static_keypoints(image):
    """The per-frame DoG detector: (n, 4) rows (x, y, scale, orientation) of
    one image, octave by octave, from the per-pixel filter reference."""
    rows, base = [np.empty((0, 4))], image
    for octave in range(features.N_OCTAVES):
        if min(base.shape) < 16:
            break
        gaussians = np.stack([_gaussian_nearest(base, (sigma, sigma))
                              for sigma in features._OCTAVE_SIGMAS])
        rows.append(_reference_octave_extrema(np.diff(gaussians, axis=0), gaussians, octave,
                                              features.CONTRAST_THRESHOLD))
        base = base[::2, ::2]
    return np.concatenate(rows)


def _busy_stack():
    """Three 64 x 64 frames: blobs of several sizes, a flat frame, and blobs
    near the border."""
    rng = np.random.default_rng(17)
    first = (blob_image([(20, 30), (45, 12)]) + blob_image([(16, 50)], sigma=3.5)
             + blob_image([(44, 44)], sigma=5.0) + 0.05 * rng.random((64, 64)))
    last = (blob_image([(3, 30), (60, 4), (30, 60)]) + blob_image([(33, 33)], sigma=6.0)
            + 0.05 * rng.random((64, 64)))
    return np.stack([first, np.full((64, 64), 0.5), last])


def test_static_stack_matches_per_frame_reference():
    frames = _busy_stack()
    kps = detect_static_keypoints(frames)
    assert np.array_equal(kps, _with_t(_per_frame_static_keypoints(f) for f in frames))
    assert set(kps[:, 2]) == {0.0, 2.0}
    # both busy frames have keypoints in two octaves, so rows ordered by
    # octave or level first would interleave the frames
    assert all(len(set(kps[kps[:, 2] == t, 3] >= 4)) == 2 for t in (0, 2))
    assert {(3.0, 30.0), (60.0, 4.0), (30.0, 60.0)} <= {(x, y) for x, y in kps[kps[:, 2] == 2, :2]}
    # and patches on the flat frame, which are degenerate
    rows = np.vstack([kps, [[32.0, 32.0, 1.0, 1.6, 0.0], [0.0, 63.0, 1.0, 3.2, 1.0]]])
    got = describe_static(frame_gradients(frames), rows)
    assert [d.degenerate for d in got[-2:]] == [True, True]
    _assert_static_descriptors_match(frames, rows, got)


def test_frame_samples_are_map_coordinates_bits():
    # both gradient stacks at integer t: points at exactly 0 and n - 1,
    # half-integers, integers and random points; describe_static masks the
    # samples of points outside the frame, which need not match
    rng = np.random.default_rng(19)
    gy, gx = np.gradient(rng.random((3, 20, 24)) - 0.5, axis=(1, 2))
    ys = np.concatenate([[0.0, 19.0, 0.5, 18.5, 7.0, -0.5, 19.5, -3.0, 25.0],
                         rng.uniform(-2.0, 21.0, 60)])
    xs = np.concatenate([[0.0, 23.0, 22.5, 0.5, 11.0, 24.0, -1e-9, 30.0, -7.5],
                         rng.uniform(-2.0, 25.0, 60)])
    t = np.arange(ys.size) % 3
    inside = (ys >= 0) & (ys <= 19) & (xs >= 0) & (xs <= 23)
    assert {0.0, 19.0} <= set(ys[inside]) and {0.0, 23.0} <= set(xs[inside])
    assert 40 < inside.sum() < ys.size - 10
    for field, got in zip((gx, gy), _frame_samples((gx, gy), t, ys, xs)):
        expected = ndimage.map_coordinates(field, (t.astype(float), ys, xs), order=1,
                                           mode="nearest")
        assert np.where(inside, got, 0.0).tobytes() == np.where(inside, expected, 0.0).tobytes()


def test_static_descriptors_one_keypoint_blocks(monkeypatch):
    frames = _busy_stack()
    kps = detect_static_keypoints(frames)
    whole = describe_static(frame_gradients(frames), kps)
    monkeypatch.setattr(features, "STATIC_BLOCK", 1)
    for a, b in zip(whole, describe_static(frame_gradients(frames), kps), strict=True):
        assert a.degenerate == b.degenerate
        assert a.values.tobytes() == b.values.tobytes()


def test_static_describe_memory_is_bounded():
    # eight 128^2 frames of smoothed noise with 685 keypoints: describing
    # them all at once peaked at 18.9 MB
    rng = np.random.default_rng(3)
    frames = (4 * ndimage.gaussian_filter(rng.random((8, 128, 128)), (0, 1.5, 1.5))
              ).astype(np.float32)
    kps = detect_static_keypoints(frames)
    assert len(kps) > 600
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        descriptors = describe_static(frame_gradients(frames), kps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(descriptors) == len(kps)
    assert peak < 8 << 20


def test_static_detection_memory_is_bounded(monkeypatch):
    # the stack above: gathering the orientation windows of every DoG point
    # of a level at once peaked at 18.7 MB
    rng = np.random.default_rng(3)
    frames = (4 * ndimage.gaussian_filter(rng.random((8, 128, 128)), (0, 1.5, 1.5))
              ).astype(np.float32)
    bound = 14 << 20

    def peak():
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            kps = detect_static_keypoints(frames)
            return tracemalloc.get_traced_memory()[1] - base, kps
        finally:
            tracemalloc.stop()

    blocked, kps = peak()
    assert len(kps) > 600 and blocked < bound
    # the blocks change no keypoint, and one block of every point breaks the bound
    monkeypatch.setattr(features, "ORIENTATION_BLOCK", 1 << 30)
    unblocked, whole = peak()
    assert unblocked > bound
    assert whole.tobytes() == kps.tobytes()


def test_static_path_memory_is_bounded(monkeypatch):
    # eight float32 frames of high-contrast noise: about 35,000 octave-0
    # pixels pass the contrast test; each is screened by its 6 face
    # neighbours, and the survivors gather all 27
    frames = (10.0 * np.random.default_rng(2).random((8, 48, 48))).astype(np.float32)
    dogs = np.diff([_gaussian_nearest(frames, (s, s)) for s in features._OCTAVE_SIGMAS], axis=0)
    assert (np.abs(dogs[1:-1, :, 2:-2, 2:-2]) >= features.CONTRAST_THRESHOLD).sum() > 33000
    bound = 4 << 20

    def peak():
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            describe_static(frame_gradients(frames), detect_static_keypoints(frames))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak() < bound
    # screening every pixel in one block breaks the bound
    monkeypatch.setattr(features, "EXTREMUM_BLOCK", 1 << 30)
    assert peak() > bound


def test_desk_plane_feature_path_memory_is_bounded():
    # one desk-size plane (8 frames of 64^2 from a 64^3 volume) through the
    # whole feature path; resampling all 8 trilinear corners in one gather
    # peaks at 4.2 MiB, the DoG pyramid at 3.4 MiB
    vol, gt = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
    vol = Volume4D(voxels=np.round(vol.voxels * 255.0) / 255.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        static, spacetime = pipeline.sequence_descriptors(vol, gt[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(static) > 50 and len(spacetime) > 10
    assert peak < 4 << 20


def test_desk_candidate_descriptors_are_read_only_record_arrays():
    vol, gt = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
    static, spacetime = pipeline.sequence_descriptors(vol, gt[0])
    for descs, dim in ((static, STATIC_DESCRIPTOR_DIM), (spacetime, SPACETIME_DESCRIPTOR_DIM)):
        assert isinstance(descs, np.recarray) and not descs.flags.writeable
        assert len(descs) and descs.values.shape == (len(descs), dim)
        assert descs.values.dtype == np.float64 and descs.values.flags.aligned
        assert not descs.degenerate.any()


def test_described_rows_read_one_at_a_time():
    # the benchmark reads describe_*'s output element by element:
    # perfbench.probes._described counts `not d.degenerate`, and
    # perfbench.workloads.pool_shortfall stacks `d.values`
    frames = _busy_stack()
    rows = np.vstack([detect_static_keypoints(frames), [[32.0, 32.0, 1.0, 1.6, 0.0]]])
    st_frames, st_points = _spacetime_cases()
    for descs in (describe_static(frame_gradients(frames), rows),
                  describe_spacetime(frame_gradients(st_frames), st_points)):
        kept = sum(not d.degenerate for d in descs)
        assert 0 < kept < len(descs) and kept == np.count_nonzero(~descs.degenerate)
        assert np.array_equal(np.array([d.values for d in descs]), descs.values)


def test_no_points_no_descriptors():
    # the empty arrays a flat stack and a sequence constant in t give
    frames = np.full((2, 64, 64), 0.5)
    static = describe_static(frame_gradients(frames), detect_static_keypoints(frames))
    assert static.values.shape == (0, STATIC_DESCRIPTOR_DIM)
    still = np.stack([blob_image([(20, 20), (36, 30)], size=48)] * 6)
    spacetime = describe_spacetime(frame_gradients(still), detect_spacetime_points(still))
    assert spacetime.values.shape == (0, SPACETIME_DESCRIPTOR_DIM)


def test_float32_frames_keep_desk_phantom_points():
    # a desk-scale phantom at the u8 precision of a loaded volume: on every
    # ground-truth plane, the float32 path keeps each DoG keypoint's (x, y,
    # t, scale) and every Harris3D point of the float64 path
    vol, gt = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
    vol = Volume4D(voxels=np.round(vol.voxels * 255.0) / 255.0)
    for plane in gt.values():
        single = smooth_sequence(pipeline._plane_sequence(vol, plane))
        double = smooth_sequence(extract_plane_sequence(vol, plane))
        assert single.frames.dtype == np.float32 and double.frames.dtype == np.float64
        kps = detect_static_keypoints(single.frames)
        assert len(kps) > 50
        assert np.array_equal(kps[:, :4], detect_static_keypoints(double.frames)[:, :4])
        pts = detect_spacetime_points(single.frames)
        assert len(pts) > 10
        assert np.array_equal(pts, detect_spacetime_points(double.frames))


# The feature path reads only what the descriptors read: one float64 copy
# and (y, x) gradient per plane, space-time bins inside the windows' box,
# and flat-index screens in both detectors. Each must match the reference
# it replaced exactly.

_RESPONSE_LEVELS = np.array([-1.0, 0.0, 1.0, 2.0, 3.0], dtype=np.float32)


def _assert_same_indices(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t_count=st.sampled_from([5, 6, 8]),
       h=st.integers(5, 14), w=st.integers(5, 14),
       threshold=st.sampled_from([1e-18, 1.0, 2.0, 3.0]), dense=st.booleans())
def test_harris_maxima_match_clipped_reference(seed, t_count, h, w, threshold, dense):
    # float32 responses from a few levels: plateaus tie between neighbours,
    # and a threshold on a level ties with it
    rng = np.random.default_rng(seed)
    p = [0.1, 0.3, 0.2, 0.2, 0.2] if dense else [0.03, 0.9, 0.03, 0.02, 0.02]
    response = rng.choice(_RESPONSE_LEVELS, size=(t_count, h, w), p=p)
    _assert_same_indices(features._harris_maxima(response, threshold),
                         harris_maxima_clipped(response, threshold))


@pytest.mark.parametrize("t_count", [5, 6, 8])
def test_harris_maxima_on_the_first_and_last_frames(t_count):
    response = np.zeros((t_count, 12, 12), dtype=np.float32)
    response[0, 3, 3] = response[-1, 8, 8] = 3.0  # lone maxima at t = 0 and T - 1
    response[-1, 8, 7] = 2.0  # next to the t = T - 1 maximum
    response[1:3, 3:6, 7:9] = 2.0  # a plateau at the threshold: every pixel is kept
    response[-1, 1, 5] = 2.0  # on the 2-pixel border
    ts, ys, xs = features._harris_maxima(response, 2.0)
    _assert_same_indices((ts, ys, xs), harris_maxima_clipped(response, 2.0))
    found = set(zip(ts.tolist(), ys.tolist(), xs.tolist()))
    assert {(0, 3, 3), (t_count - 1, 8, 8), (1, 3, 7), (2, 5, 8)} <= found
    assert len(found) == 2 + 12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t_count=st.integers(1, 3),
       h=st.integers(5, 12), w=st.integers(5, 12), double=st.booleans())
def test_contrast_pixels_match_nonzero_reference(seed, t_count, h, w, double):
    # DoG values exactly at the threshold, one double below it, of both
    # signs, in float32 (the pyramid's) and float64, on every level and on
    # the 2-pixel border
    dtype = np.float64 if double else np.float32
    at = dtype(features.CONTRAST_THRESHOLD)
    below = np.nextafter(at, dtype(0))
    levels = np.array([-2 * at, -at, -below, 0.0, below, at, 2 * at], dtype=dtype)
    dogs = np.random.default_rng(seed).choice(levels, size=(t_count, 5, h, w))
    got = features._contrast_pixels(dogs, features.CONTRAST_THRESHOLD)
    assert np.array_equal(got, contrast_pixels_nonzero(dogs, features.CONTRAST_THRESHOLD))


def test_contrast_pixels_at_the_threshold_and_the_border():
    dogs = np.zeros((2, 5, 9, 9), dtype=np.float32)
    at = np.float32(features.CONTRAST_THRESHOLD)
    dogs[1, 2, 2, 6] = at  # kept: at the threshold, just off the border
    dogs[1, 3, 6, 2] = -at
    dogs[1, 2, 4, 4] = np.nextafter(at, np.float32(0))  # below it
    dogs[1, 2, 1, 4] = dogs[1, 2, 4, 7] = at  # on the border
    dogs[0, 0, 4, 4] = dogs[0, 4, 4, 4] = at  # on the outer levels
    got = features._contrast_pixels(dogs, features.CONTRAST_THRESHOLD)
    assert np.array_equal(got, contrast_pixels_nonzero(dogs, features.CONTRAST_THRESHOLD))
    assert np.array_equal(np.column_stack(np.unravel_index(got, dogs.shape)),
                          [[1, 2, 2, 6], [1, 3, 6, 2]])


def test_frame_gradients_of_one_frame():
    frame = np.random.default_rng(9).random((1, 20, 24)).astype(np.float32)
    stack, gy, gx = frame_gradients(frame)
    assert stack.dtype == gy.dtype == gx.dtype == np.float64 and stack.shape == (1, 20, 24)
    assert np.array_equal(stack, frame)
    want_y, want_x = np.gradient(frame[0].astype(np.float64))
    assert np.array_equal(gy[0], want_y) and np.array_equal(gx[0], want_x)
    (d,) = describe_static((stack, gy, gx), np.array([[12.0, 10.0, 0.0, 1.6, 0.5]]))
    assert not d.degenerate


def test_cropped_gradient_bins_are_the_full_ones_cropped():
    # a float32 stack in float64, as the feature path describes it
    stack = np.random.default_rng(10).random((8, 32, 24)).astype(np.float32).astype(np.float64)
    full = np.gradient(stack)
    assert all(np.array_equal(a, b) for a, b in zip(full[1:], frame_gradients(stack)[1:]))
    mag, code = _gradient_bins(*full)
    for ys, xs in ((slice(3, 17), slice(0, 24)), (slice(0, 32), slice(5, 6)),
                   (slice(30, 32), slice(1, 23)), (slice(0, 32), slice(0, 24))):
        box = (slice(None), ys, xs)
        gt = np.gradient(stack[box], axis=0)
        assert gt.tobytes() == np.ascontiguousarray(full[0][box]).tobytes()
        crop = _gradient_bins(gt, *(np.ascontiguousarray(g[box]) for g in full[1:]))
        assert crop[0].tobytes() == np.ascontiguousarray(mag[box]).tobytes()
        assert crop[1].tobytes() == np.ascontiguousarray(code[box]).tobytes()


def _scales(xys, t):
    return np.array([(x, y, t, ss, st) for x, y in xys for ss, st in features.SPACETIME_SCALES])


@pytest.mark.parametrize("t_count", [6, 16])
@pytest.mark.parametrize("points", [
    # one point, whose box is its window
    np.array([[10.0, 11.0, 2.0, 2.0, 2.0]]),
    # a point at each frame corner, whose windows are clipped, at every scale
    _scales(((0.0, 0.0), (19.0, 0.0), (0.0, 23.0), (19.0, 23.0)), 3.0),
    # two far-apart points, whose box is the whole frame
    np.array([[1.0, 1.0, 0.0, 2.0, 2.0], [18.0, 22.0, 5.0, 2.0, 4.0]]),
    # both radius groups, off centre and near the first and last frames
    _scales(((6.4, 14.6), (12.0, 9.0)), 1.0)[::-1],
    _scales(((8.0, 12.0),), 4.6),
], ids=["one", "corners", "far-apart", "radius-groups", "centre"])
def test_spacetime_descriptors_match_full_stack_reference(t_count, points):
    rng = np.random.default_rng(t_count)
    frames = rng.random((t_count, 24, 20)).astype(np.float32)
    frames[:, 14:, 10:] = 0.4  # flat: degenerate windows there
    got = describe_spacetime(frame_gradients(frames), points)
    want = describe_spacetime_full_stack(frames, points)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_frames, which", [(8, "ground truth"), (4, "ground truth"),
                                             (8, "empty")])
def test_sequence_descriptors_match_reference_composition(monkeypatch, n_frames, which):
    # a desk plane with space-time points, one of 4 frames, which has none,
    # and a candidate that holds no feature of either kind
    vol, gt = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0,
                                        n_frames=n_frames))
    cfg = PipelineConfig(candidates_n=16, plane_size=64)
    plane = gt[0] if which == "ground truth" else pipeline.candidate_planes(vol.dims, cfg)[3]
    got = pipeline.sequence_descriptors(vol, plane)
    with monkeypatch.context() as m:
        m.setattr(features, "_contrast_pixels", contrast_pixels_nonzero)
        m.setattr(features, "_harris_maxima", harris_maxima_clipped)
        want = sequence_descriptors_per_describer(vol, plane)
    # a boolean-indexed record array leaves its padding bytes unset, so the
    # fields are compared
    for a, b in zip(got, want, strict=True):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.degenerate.tobytes() == b.degenerate.tobytes()
    static, spacetime = got
    assert (len(static) > 20) == (which == "ground truth")
    assert (len(spacetime) > 10) == (which == "ground truth" and n_frames == 8)


@pytest.mark.parametrize("n_frames", [5, 6, 8])
def test_detectors_over_a_stack_of_planes_equal_the_per_plane_calls(n_frames):
    # three planes of smoothed noise whose contrasts differ by 80x: a
    # Harris3D threshold over all three would keep only the brightest
    # plane's points
    rng = np.random.default_rng(n_frames)
    planes = [(amp * ndimage.gaussian_filter(rng.random((n_frames, 32, 32)), (0, 1.5, 1.5))
               ).astype(np.float32) for amp in (4.0, 40.0, 0.5)]
    stack = np.stack(planes)
    for detect in (detect_static_keypoints, detect_spacetime_points):
        rows = detect(stack)
        found = 0
        for p, plane in enumerate(planes):
            own = rows[rows[:, 2] // n_frames == p]
            own[:, 2] -= p * n_frames
            want = detect(plane)
            assert own.tobytes() == want.tobytes()
            found += len(want) > 0
        assert found >= 2
    # each plane's response is filtered in its own (x, y, t)
    for sigma_s, sigma_t in features.SPACETIME_SCALES:
        sigmas = (sigma_t, sigma_s, sigma_s)
        batch = features._harris_response(stack, sigmas, features.HARRIS_K)
        for p, plane in enumerate(planes):
            want = features._harris_response(plane, sigmas, features.HARRIS_K)
            assert batch[p].tobytes() == want.tobytes()
