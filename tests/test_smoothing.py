import numpy as np
import pytest
from scipy.fft import rfft2

from oracles import (gradient_count, l0_smooth_every_step, poisson_solve_dividing,
                     solve_screened_poisson)
from planefinder import smoothing
from planefinder.phantom import PhantomSpec, synth_phantom
from planefinder.smoothing import (BETA_MAX, KAPPA, LAM, SmoothingError, _l0_smooth_stack,
                                   _laplacian_symbol, _poisson_solve, forward_diff,
                                   divergence, l0_smooth, smooth_sequence,
                                   threshold_gradients)
from planefinder.volume import PlaneSequence, extract_plane_sequence


def step_image(rng, sigma=0.05):
    img = np.full((64, 64), 0.2)
    img[:, 32:] = 0.8
    return np.clip(img + rng.normal(0.0, sigma, img.shape), 0.0, 1.0)


def test_invalid_config():
    # lam must lie in (0, BETA_MAX / 2); NaN fails both comparisons
    img = np.random.default_rng(0).random((32, 32))
    for lam in (np.nan, np.inf, 0.0, -1.0, BETA_MAX / 2):
        with pytest.raises(SmoothingError, match="lambda"):
            l0_smooth(img, lam)
    assert not np.array_equal(l0_smooth(img, np.nextafter(BETA_MAX / 2, 0)), img)


def test_lambda_zero_limit_is_identity():
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    out = l0_smooth(img, 1e-12)
    assert np.abs(out - img).max() <= 1e-6


def test_constant_image_unchanged():
    img = np.full((40, 40), 0.37)
    for lam in (0.005, 0.02, 0.1):
        out = l0_smooth(img, lam)
        assert np.abs(out - img).max() <= 1e-12


def test_non_finite_input_rejected():
    img = np.zeros((32, 32))
    img[3, 3] = np.nan
    with pytest.raises(SmoothingError):
        l0_smooth(img)


def test_step_image_gradient_count_collapses():
    # count with the half-quadratic's own final zero-gradient threshold:
    # sub-threshold Fourier dust cannot drop below ~1/sqrt(beta_max)
    rng = np.random.default_rng(42)
    noisy = step_image(rng)
    out = l0_smooth(noisy, 0.02)
    # count above the residual dust floor of the final finite-beta solve
    tol = 1e-3
    c_in = gradient_count(noisy, tol=tol)
    c_out = gradient_count(out, tol=tol)
    assert c_out < 0.15 * c_in
    # step edge stays put
    col_in = np.argmax(np.abs(np.diff(noisy, axis=1)).sum(axis=0))
    col_out = np.argmax(np.abs(np.diff(out, axis=1)).sum(axis=0))
    assert col_out == col_in == 31


def test_gradient_count_monotone_in_lambda():
    rng = np.random.default_rng(42)
    noisy = step_image(rng)
    counts = []
    for lam in (0.005, 0.01, 0.02, 0.04, 0.08):
        out = l0_smooth(noisy, lam)
        counts.append(gradient_count(out, tol=1e-3))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_output_range_bounded():
    rng = np.random.default_rng(1)
    noisy = step_image(rng)
    out = l0_smooth(noisy, 0.02)
    assert out.min() >= noisy.min() - 0.1
    assert out.max() <= noisy.max() + 0.1


def test_hv_subproblem_pointwise_optimal():
    # the thresholded (h,v) beats the only alternative (zero vs copy) per pixel
    rng = np.random.default_rng(2)
    s = rng.random((24, 24))
    lam, beta = 0.02, 0.08
    h, v, _ = threshold_gradients(s, lam, beta)
    dx, dy = forward_diff(s)
    cost_chosen = beta * ((dx - h) ** 2 + (dy - v) ** 2) \
        + lam * ((np.abs(h) + np.abs(v)) > 0)
    cost_zero = beta * (dx ** 2 + dy ** 2)
    cost_copy = np.full_like(cost_zero, lam)
    assert np.all(cost_chosen <= cost_zero + 1e-12)
    assert np.all(cost_chosen <= cost_copy + 1e-12)


def test_screened_poisson_normal_equations():
    rng = np.random.default_rng(3)
    img = rng.random((32, 32))
    beta = 4.0
    h, v, _ = threshold_gradients(img, 0.02, beta)
    s = solve_screened_poisson(img, h, v, beta)
    dx, dy = forward_diff(s)
    lhs = s + beta * divergence(dx, dy)
    rhs = img + beta * divergence(h, v)
    assert np.abs(lhs - rhs).max() <= 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 64, 64), (6, 32, 32), (3, 33, 47), (1, 32, 31)])
def test_poisson_step_has_the_bits_of_complex_division(shape, dtype):
    # numpy divides a complex value by a real d as (re * (1/d), im * (1/d)),
    # so the product with 1/d in the transform's precision is bit-identical
    imgs = np.random.default_rng(8).random(shape).astype(dtype)
    f_img = rfft2(imgs)
    lap = _laplacian_symbol(*shape[-2:], f_img.real.dtype)
    beta = 2.0 * LAM
    while beta <= BETA_MAX:
        h, v, _ = threshold_gradients(imgs, LAM, beta)
        got = _poisson_solve(f_img, h, v, beta, lap)
        ref = poisson_solve_dividing(f_img, h, v, beta, lap)
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()
        beta *= KAPPA


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("jump, empty_first_steps", [(0.6, 1), (0.3, 3), (1.0, 0)])
def test_steps_that_keep_nothing_skip_no_bits(monkeypatch, dtype, jump, empty_first_steps):
    # step images: a jump j is kept once j^2 > lam / beta, so the first
    # steps keep no gradient where j is small, and every step keeps some
    # where j = 1; float64 is the `planefinder smooth` path
    rng = np.random.default_rng(9)
    imgs = np.full((3, 32, 40), 0.2)
    imgs[:, :, 20:] += jump
    imgs += rng.normal(0.0, 0.01, imgs.shape)
    imgs = imgs.astype(dtype)
    kept = []

    def recorded(s, lam, beta):
        h, v, keep = threshold_gradients(s, lam, beta)
        kept.append(keep.any())
        return h, v, keep

    monkeypatch.setattr(smoothing, "threshold_gradients", recorded)
    got = _l0_smooth_stack(imgs, LAM)
    assert len(kept) == 22 and kept.index(True) == empty_first_steps and all(
        kept[empty_first_steps:])
    assert got.dtype == dtype
    assert got.tobytes() == l0_smooth_every_step(imgs, LAM).tobytes()


def test_smooth_sequence_identical_frames():
    frame = np.random.default_rng(4).random((32, 32))
    seq = PlaneSequence(np.stack([frame, frame]))
    out = smooth_sequence(seq)
    assert np.array_equal(out.frames[0], out.frames[1])


def test_smooth_single_frame_matches_l0():
    frame = np.random.default_rng(5).random((32, 32))
    out = smooth_sequence(PlaneSequence(frame[None]))
    assert np.array_equal(out.frames[0], l0_smooth(frame, 0.02))


def test_smooth_commutes_with_frame_permutation():
    frames = np.random.default_rng(6).random((3, 32, 32))
    perm = [2, 0, 1]
    a = smooth_sequence(PlaneSequence(frames[perm])).frames
    b = smooth_sequence(PlaneSequence(frames)).frames[perm]
    assert np.array_equal(a, b)


def _reference_l0(img, lam):
    """Per-frame oracle: the full complex FFT solve with the difference
    operators' transfer functions built from their circular kernels."""
    ny, nx = img.shape
    kx = np.zeros((ny, nx))
    kx[0, 0], kx[0, -1] = -1.0, 1.0
    ky = np.zeros((ny, nx))
    ky[0, 0], ky[-1, 0] = -1.0, 1.0
    otf_x, otf_y = np.fft.fft2(kx), np.fft.fft2(ky)
    lap = np.abs(otf_x) ** 2 + np.abs(otf_y) ** 2
    s = img.copy()
    beta = 2.0 * lam
    while beta <= BETA_MAX:
        h, v, _ = threshold_gradients(s, lam, beta)
        numer = np.fft.fft2(img) + beta * (np.conj(otf_x) * np.fft.fft2(h)
                                           + np.conj(otf_y) * np.fft.fft2(v))
        s = np.real(np.fft.ifft2(numer / (1.0 + beta * lap)))
        beta *= KAPPA
    return s


@pytest.mark.parametrize("shape", [(8, 64, 64), (3, 33, 47), (3, 32, 31), (1, 40, 40)])
def test_batched_real_fft_matches_complex_reference(shape):
    frames = np.random.default_rng(7).random(shape)
    out = smooth_sequence(PlaneSequence(frames)).frames
    ref = np.stack([_reference_l0(f, 0.02) for f in frames])
    assert np.abs(out - ref).max() <= 1e-11


def test_float32_stack_tracks_float64_on_phantom_plane():
    vol, gt = synth_phantom(PhantomSpec(class_count=1, noise_sigma=0.005, seed=1))
    frames = extract_plane_sequence(vol, gt[0]).frames
    double = _l0_smooth_stack(frames, LAM)
    single = _l0_smooth_stack(frames.astype(np.float32), LAM)
    assert single.dtype == np.float32 and double.dtype == np.float64
    assert np.abs(single - double).max() <= 5e-4
