import math

import numpy as np
import pytest
from scipy import ndimage

from planefinder import features
from planefinder.features import (SPACETIME_DESCRIPTOR_DIM, STATIC_DESCRIPTOR_DIM,
                                  FeatureError, KeyPoint2D, SpaceTimePoint,
                                  _gaussian_nearest, _harris_response, _octave_extrema,
                                  _orientations, describe_spacetime, describe_static,
                                  detect_spacetime_points, detect_static_keypoints)
from planefinder.volume import PlaneParams, PlaneSequence


def blob_image(centers, sigma=2.5, amp=1.0, size=64):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cx, cy in centers:
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
    return img


def _sequence(frames):
    p = PlaneParams(origin=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    width=frames.shape[2], height=frames.shape[1])
    return PlaneSequence(params=p, frames=frames)


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


def test_small_image_rejected():
    with pytest.raises(FeatureError):
        detect_static_keypoints(np.zeros((16, 16)))


def test_flat_image_no_keypoints():
    assert detect_static_keypoints(np.full((64, 64), 0.5)) == []


def test_blob_detected_near_center():
    img = blob_image([(20, 28)])
    kps = detect_static_keypoints(img)
    assert len(kps) >= 1
    d = min(math.hypot(kp.x - 20, kp.y - 28) for kp in kps)
    assert d <= 2.0


def test_two_blobs_two_locations():
    img = blob_image([(16, 16), (46, 44)])
    kps = detect_static_keypoints(img)
    for cx, cy in ((16, 16), (46, 44)):
        assert any(math.hypot(kp.x - cx, kp.y - cy) <= 2.0 for kp in kps)


def test_straight_edge_rejected():
    # a pure step edge has a degenerate curvature ratio and yields no points
    img = np.zeros((64, 64))
    img[:, 32:] = 1.0
    kps = detect_static_keypoints(img)
    assert all(abs(kp.x - 31.5) > 3 for kp in kps)


def test_low_contrast_blob_filtered():
    img = blob_image([(32, 32)], amp=0.02)
    assert detect_static_keypoints(img, contrast_threshold=0.03) == []


def test_descriptor_shape_and_norm():
    img = blob_image([(20, 28)])
    kps = detect_static_keypoints(img)
    descs = [d for d in describe_static(img, kps) if not d.degenerate]
    assert descs
    for d in descs:
        assert d.values.shape == (STATIC_DESCRIPTOR_DIM,)
        assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)
        assert d.values.min() >= 0.0


def test_descriptor_brightness_invariant():
    img = blob_image([(24, 30)])
    kps = detect_static_keypoints(img)
    d1 = describe_static(img, kps)
    d2 = describe_static(img + 0.2, kps)
    for a, b in zip(d1, d2):
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_descriptor_contrast_invariant():
    img = blob_image([(24, 30)])
    kps = detect_static_keypoints(img)
    d1 = describe_static(img, kps)
    d2 = describe_static(3.0 * img, kps)
    for a, b in zip(d1, d2):
        assert np.allclose(a.values, b.values, atol=1e-9)


def test_descriptor_flat_patch_degenerate():
    img = np.full((64, 64), 0.5)
    kp = KeyPoint2D(x=32.0, y=32.0, scale=1.6, orientation=0.0)
    (d,) = describe_static(img, [kp])
    assert d.degenerate
    assert np.all(d.values == 0.0)


def test_descriptor_rotation_covariant():
    # rotating the image by 90 degrees leaves the oriented descriptor close
    img = blob_image([(22, 30)], sigma=3.0) + blob_image([(28, 30)], sigma=1.5, amp=0.6)
    rot = np.rot90(img).copy()
    kps = detect_static_keypoints(img)
    kps_r = detect_static_keypoints(rot)
    assert kps and kps_r
    d = describe_static(img, kps[:1])[0].values
    best = max(float(d @ describe_static(rot, [k])[0].values) for k in kps_r)
    assert best > 0.8


def test_spacetime_needs_five_frames():
    frames = np.zeros((4, 48, 48))
    with pytest.raises(FeatureError):
        detect_spacetime_points(_sequence(frames))


def test_static_sequence_no_spacetime_points():
    frame = blob_image([(20, 20), (36, 30)], size=48)
    frames = np.stack([frame] * 6)
    assert detect_spacetime_points(_sequence(frames)) == []


def test_pulsating_blob_detected():
    size, t_count = 48, 8
    frames = np.stack([
        blob_image([(24, 24)], sigma=3.0, size=size,
                   amp=0.6 + 0.4 * math.sin(2 * math.pi * t / t_count))
        for t in range(t_count)])
    pts = detect_spacetime_points(_sequence(frames))
    assert pts
    assert any(math.hypot(p.x - 24, p.y - 24) <= 4.0 for p in pts)


def test_spacetime_descriptor_shape_and_norm():
    size, t_count = 48, 8
    frames = np.stack([
        blob_image([(24, 24)], sigma=3.0, size=size,
                   amp=0.6 + 0.4 * math.sin(2 * math.pi * t / t_count))
        for t in range(t_count)])
    seq = _sequence(frames)
    pts = detect_spacetime_points(seq)
    descs = [d for d in describe_spacetime(seq, pts) if not d.degenerate]
    assert descs
    for d in descs:
        assert d.values.shape == (SPACETIME_DESCRIPTOR_DIM,)
        assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-12)


def test_spacetime_descriptor_flat_degenerate():
    seq = _sequence(np.full((6, 48, 48), 0.3))
    pt = SpaceTimePoint(x=24.0, y=24.0, t=3.0, sigma_s=2.0, sigma_t=2.0)
    (d,) = describe_spacetime(seq, [pt])
    assert d.degenerate


def test_spacetime_descriptor_window_outside():
    seq = _sequence(np.zeros((6, 48, 48)))
    pt = SpaceTimePoint(x=500.0, y=24.0, t=3.0, sigma_s=2.0, sigma_t=2.0)
    with pytest.raises(FeatureError):
        describe_spacetime(seq, [pt])


def test_spacetime_inplane_gradient_hits_middle_elevation():
    # frames constant in t, ramp in x: all gradient energy is in-plane and
    # points along +x, so only azimuth bin 0 of the middle elevation fires
    ramp = np.tile(np.linspace(0, 1, 48), (48, 1))
    seq = _sequence(np.stack([ramp] * 6))
    pt = SpaceTimePoint(x=24.0, y=24.0, t=3.0, sigma_s=2.0, sigma_t=1.0)
    (d,) = describe_spacetime(seq, [pt])
    hist = d.values.reshape(8, 24)  # (cells, elevation*azimuth)
    nz = np.nonzero(hist.sum(axis=0))[0]
    assert nz.tolist() == [1 * 8 + 0]


def test_spacetime_temporal_gradient_hits_top_elevation():
    frames = np.stack([np.full((48, 48), t / 5.0) for t in range(6)])
    seq = _sequence(frames)
    pt = SpaceTimePoint(x=24.0, y=24.0, t=3.0, sigma_s=2.0, sigma_t=1.0)
    (d,) = describe_spacetime(seq, [pt])
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
    """describe_static's descriptor for one keypoint, one keypoint at a time,
    sampling the gradients with `sample` at clipped coordinates."""
    gy, gx = np.gradient(img)
    ny, nx = img.shape
    half_width = 8.0 * kp.scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * kp.scale
    su, sv = np.meshgrid(lin, lin)
    px = kp.x + su * math.cos(kp.orientation) - sv * math.sin(kp.orientation)
    py = kp.y + su * math.sin(kp.orientation) + sv * math.cos(kp.orientation)
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    cx, cy = np.clip(px, 0, nx - 1), np.clip(py, 0, ny - 1)
    vx = np.where(inside, sample(gx, cx, cy), 0.0)
    vy = np.where(inside, sample(gy, cx, cy), 0.0)
    mag = np.hypot(vx, vy)
    ang = np.mod(np.arctan2(vy, vx) - kp.orientation, 2.0 * math.pi)
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
    # orientation 0 at scale 1 puts samples on half-integer offsets, so the
    # first two patches have rows and columns at exactly 0 and at exactly 63
    kps = [KeyPoint2D(x=7.5, y=7.5, scale=1.0, orientation=0.0),
           KeyPoint2D(x=55.5, y=55.5, scale=1.0, orientation=0.0)]
    kps += [KeyPoint2D(x=x, y=y, scale=s, orientation=o)
            for x, y, s, o in zip(rng.uniform(0, 63, 12), rng.uniform(0, 63, 12),
                                  rng.uniform(1.0, 4.0, 12), rng.uniform(0, 2 * math.pi, 12))]
    for kp, d in zip(kps, describe_static(img, kps)):
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
                found.append(KeyPoint2D(x=float(x) * factor, y=float(y) * factor,
                                        scale=sigma, orientation=ori))
    return found


def _reference_orientation(img, x, y, sigma, n_bins=36):
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    ny, nx = img.shape
    y0, y1 = max(1, y - radius), min(ny - 1, y + radius + 1)
    x0, x1 = max(1, x - radius), min(nx - 1, x + radius + 1)
    gy, gx = np.gradient(img[y0 - 1:y1 + 1, x0 - 1:x1 + 1])
    gy = gy[1:-1, 1:-1]
    gx = gx[1:-1, 1:-1]
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


def _reference_spacetime_points(seq, k=features.HARRIS_K, scales=features.SPACETIME_SCALES):
    frames = np.asarray(seq.frames, dtype=np.float64)
    points = []
    for sigma_s, sigma_t in scales:
        response = features._harris_response(frames, (sigma_t, sigma_s, sigma_s), k)
        threshold = max(float(response.mean() + 3.0 * response.std()), 1e-18)
        local_max = response == ndimage.maximum_filter(response, size=3, mode="nearest")
        mask = local_max & (response >= threshold) & (response > 0)
        mask[:, :2, :] = mask[:, -2:, :] = False
        mask[:, :, :2] = mask[:, :, -2:] = False
        points += [SpaceTimePoint(x=float(x), y=float(y), t=float(t),
                                  sigma_s=sigma_s, sigma_t=sigma_t)
                   for t, y, x in zip(*np.nonzero(mask))]
    return points


def _reference_spacetime_descriptor(frames, pt):
    """Values of one point's descriptor, or None where it is degenerate."""
    gt, gy, gx = np.gradient(frames)
    t_count, ny, nx = frames.shape
    rs = max(2, int(round(3.0 * pt.sigma_s)))
    rt = max(1, int(round(3.0 * pt.sigma_t)))
    cx, cy, ct = int(round(pt.x)), int(round(pt.y)), int(round(pt.t))
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


def test_octave_extrema_match_filter_reference():
    rng = np.random.default_rng(5)
    gaussians = rng.random((6, 32, 32))
    gaussians[:, 20:, :12] = 0.25  # flat: windows there are degenerate
    dogs = _quantized(rng, (5, 32, 32), [-0.06, -0.03, 0.0, 0.03, 0.06])
    dogs[:, 8:16, 8:16] = 0.05  # a plateau above threshold: max and min tie
    dogs[2, 10, 10] = 0.08
    dogs[2, 9:12:2, 9:12:2] = 0.08  # a peak tied with its diagonal neighbours
    for y, x in ((2, 2), (2, 29), (29, 2), (29, 29), (2, 16), (16, 29)):
        dogs[1:4, y, x] = (0.2, 0.3, 0.2)  # extrema next to the 2-pixel border
    for octave in (0, 2):
        expected = _reference_octave_extrema(dogs, gaussians, octave, 0.03)
        assert _octave_extrema(dogs, gaussians, octave, 0.03) == expected
    found = {(kp.y, kp.x) for kp in expected}
    assert len(expected) > 50
    assert (40.0, 40.0) in found  # 4 x (10, 10), the tied peak
    assert {(8.0, 8.0), (8.0, 116.0), (116.0, 8.0), (116.0, 116.0)} <= found
    # raising the threshold past every value leaves nothing to gather
    assert _octave_extrema(dogs, gaussians, 0, 1.0) == []


@pytest.mark.parametrize("size, sigma", [(16, 3.2), (24, 2.016), (40, 2.54)])
def test_orientations_match_reference_at_every_pixel(size, sigma):
    # windows of radius 9-14 are clipped by every edge of these images
    rng = np.random.default_rng(size)
    img = blob_image([(size / 3, size / 2)], sigma=3.0, size=size) + 0.1 * rng.random((size, size))
    img[:size // 2, :size // 2] = 0.5  # flat corner: degenerate windows at 40 px
    ys, xs = np.mgrid[2:size - 2, 2:size - 2].reshape(2, -1)
    for image in (img, np.full((size, size), 0.5)):
        ori, ok = _orientations(image, ys, xs, sigma)
        expected = [_reference_orientation(image, x, y, sigma) for y, x in zip(ys, xs)]
        assert ok.tolist() == [e is not None for e in expected]
        assert ori[ok].tolist() == [e for e in expected if e is not None]
    assert not ok.any()


def test_spacetime_points_match_filter_reference(monkeypatch):
    rng = np.random.default_rng(8)
    size, t_count = 32, 6
    frames = np.stack([
        blob_image([(12, 14)], sigma=2.0, size=size, amp=0.6 + 0.4 * math.cos(t))
        + blob_image([(24, 20)], sigma=3.0, size=size, amp=0.5 + 0.5 * math.sin(2 * t))
        for t in range(t_count)]) + 0.02 * rng.random((t_count, size, size))
    seq = _sequence(frames)
    assert detect_spacetime_points(seq) == _reference_spacetime_points(seq)
    # responses from a few levels: plateaus, ties and maxima at t = 0 and
    # t = T - 1, where the neighbourhood is clipped in t
    # (the threshold, mean + 3 std, falls between 1 and 2, so a kept 2 must
    # have no 3 among its neighbours)
    responses = _quantized(rng, (t_count, size, size), [-1.0, 0.0, 1.0, 2.0, 3.0],
                           p=[0.03, 0.9, 0.03, 0.02, 0.02])
    monkeypatch.setattr(features, "_harris_response", lambda *args: responses)
    points = detect_spacetime_points(seq, scales=((2.0, 2.0),))
    assert points == _reference_spacetime_points(seq, scales=((2.0, 2.0),))
    assert {0.0, t_count - 1.0} <= {p.t for p in points}
    assert {2.0, 3.0} <= {responses[int(p.t), int(p.y), int(p.x)] for p in points}


def _spacetime_cases():
    rng = np.random.default_rng(21)
    t_count, ny, nx = 6, 24, 20
    frames = rng.random((t_count, ny, nx))
    frames[:, :, 8:] = 0.4  # flat in x >= 8: degenerate sigma_s = 2 windows there
    frames[:, 12:, 8:] += 1e-4 * np.arange(12)  # but for a faint ramp in y >= 12
    points = [SpaceTimePoint(x=x, y=y, t=t, sigma_s=ss, sigma_t=st)
              for x, y, t in ((0.0, 0.0, 0.0), (19.0, 23.0, 5.0), (10.4, 11.6, 2.5),
                              (-3.0, 12.0, 3.0), (5.0, 26.0, 7.0), (17.6, 12.0, 1.0),
                              (18.0, 4.0, 4.0), (9.0, 12.0, -2.0))
              for ss, st in features.SPACETIME_SCALES]
    return frames, points


def test_spacetime_descriptors_match_reference():
    # windows crossing t = 0, t = T - 1 and every image edge, at all scales
    frames, points = _spacetime_cases()
    got = describe_spacetime(_sequence(frames), points)
    expected = [_reference_spacetime_descriptor(frames, pt) for pt in points]
    assert [d.degenerate for d in got] == [e is None for e in expected]
    assert 0 < sum(e is None for e in expected) < len(points)
    for d, e in zip(got, expected):
        assert np.array_equal(d.values, np.zeros(SPACETIME_DESCRIPTOR_DIM) if e is None else e)


def test_spacetime_descriptors_one_point_blocks(monkeypatch):
    frames, points = _spacetime_cases()
    seq = _sequence(frames)
    whole = describe_spacetime(seq, points)
    monkeypatch.setattr(features, "SPACETIME_BLOCK_BYTES", 1)
    for a, b in zip(whole, describe_spacetime(seq, points)):
        assert a.degenerate == b.degenerate
        assert np.array_equal(a.values, b.values)


def _map_coordinates_nearest(field, x, y):
    return ndimage.map_coordinates(field, (y, x), order=1, mode="nearest")


def test_static_descriptors_match_per_point_reference():
    rng = np.random.default_rng(13)
    img = blob_image([(20, 30), (45, 12)]) + 0.05 * rng.random((64, 64))
    img[40:, 40:] = 0.3  # flat: degenerate patches
    # patches partly outside the frame, at every edge and corner
    kps = [KeyPoint2D(x=x, y=y, scale=s, orientation=o)
           for x, y in ((0.0, 0.0), (63.0, 63.0), (2.5, 40.0), (60.0, 3.0), (55.0, 55.0),
                        (32.0, 32.0))
           for s, o in ((1.6, 0.0), (3.2, 2.0), (6.4, 4.5))]
    got = describe_static(img, kps)
    degenerate = [d.degenerate for d in got]
    assert any(degenerate) and not all(degenerate)
    for kp, d in zip(kps, got):
        if d.degenerate:
            assert np.array_equal(d.values, np.zeros(STATIC_DESCRIPTOR_DIM))
        else:
            expected = _reference_static_descriptor(img, kp, sample=_map_coordinates_nearest)
            assert np.array_equal(d.values, expected)


def test_no_points_no_descriptors():
    img = np.full((64, 64), 0.5)
    assert describe_static(img, detect_static_keypoints(img)) == []
    assert describe_spacetime(_sequence(np.zeros((6, 32, 32))), []) == []
