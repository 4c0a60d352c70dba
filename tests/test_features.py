import math

import numpy as np
import pytest
from scipy import ndimage

from planefinder.features import (SPACETIME_DESCRIPTOR_DIM, STATIC_DESCRIPTOR_DIM,
                                  FeatureError, KeyPoint2D, SpaceTimePoint,
                                  _gaussian_nearest, describe_spacetime,
                                  describe_static, detect_spacetime_points,
                                  detect_static_keypoints)
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


def _reference_static_descriptor(img, kp, n_samples=16):
    """describe_static's descriptor for one keypoint, sampling the gradients
    with _reference_bilinear at clipped coordinates."""
    gy, gx = np.gradient(img)
    ny, nx = img.shape
    half_width = 8.0 * kp.scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * kp.scale
    su, sv = np.meshgrid(lin, lin)
    px = kp.x + su * math.cos(kp.orientation) - sv * math.sin(kp.orientation)
    py = kp.y + su * math.sin(kp.orientation) + sv * math.cos(kp.orientation)
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    cx, cy = np.clip(px, 0, nx - 1), np.clip(py, 0, ny - 1)
    vx = np.where(inside, _reference_bilinear(gx, cx, cy), 0.0)
    vy = np.where(inside, _reference_bilinear(gy, cx, cy), 0.0)
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
