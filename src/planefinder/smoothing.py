"""Edge-preserving L0 gradient-minimization smoothing of grayscale frames."""

import numpy as np
from scipy.fft import ifft, irfft, rfft2

from .volume import PlaneSequence

# The L0 weight, and the fixed continuation schedule of the half-quadratic
# solver (Xu, Lu, Xu & Jia, SIGGRAPH Asia 2011): beta starts at 2*lam and
# grows by KAPPA while it stays at or below BETA_MAX.
LAM = 0.02
KAPPA = 2.0
BETA_MAX = 1e5


class SmoothingError(Exception):
    pass


def forward_diff(img):
    """Periodic forward differences (dx, dy) over the last two axes, matching
    the Fourier solve. Each is the wrapped shift copied into a fresh array,
    minus img in place: the values of np.roll(img, -1) - img, with one
    temporary fewer."""
    img = np.asarray(img)
    dx = np.empty_like(img)
    dx[..., :-1] = img[..., 1:]
    dx[..., -1] = img[..., 0]
    dx -= img
    dy = np.empty_like(img)
    dy[..., :-1, :] = img[..., 1:, :]
    dy[..., -1, :] = img[..., 0, :]
    dy -= img
    return dx, dy


def divergence(h, v):
    """Adjoint of forward_diff: dx^T h + dy^T v under periodic wrap, built
    the same way from backward shifts."""
    out = np.empty_like(h)
    out[..., 1:] = h[..., :-1]
    out[..., 0] = h[..., -1]
    out -= h
    dv = np.empty_like(v)
    dv[..., 1:, :] = v[..., :-1, :]
    dv[..., 0, :] = v[..., -1, :]
    dv -= v
    out += dv
    return out


def l0_smooth(image, lam=LAM):
    """Half-quadratic L0 gradient minimization with exact periodic FFT solves.

    Minimizes sum_p (S_p - I_p)^2 + lam * #{p : |dxS_p| + |dyS_p| != 0}.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise SmoothingError("expected a 2D grayscale image")
    return _l0_smooth_stack(img[None], lam)[0]


def _l0_smooth_stack(imgs, lam):
    """L0-smooth every (H, W) image of a (T, H, W) stack in one beta loop, in
    the precision of its transform: float32 for float32 images, else float64.

    rfft2(I) and the Laplacian symbol are loop invariants, so each beta step
    costs one rfft2 and one inverse transform over the whole stack. A step
    that keeps no gradient (the first steps, while lam/beta is large) has
    h = v = 0 and skips their transform: the right-hand side is rfft2(I)
    itself, since adding the transform of divergence(0, 0), all zeros,
    leaves the bits of every nonzero component as they are.
    """
    # 0 < 2*lam < BETA_MAX, so the schedule takes a step; NaN fails both tests
    if not 0 < lam < BETA_MAX / 2:
        raise SmoothingError("lambda must be positive, finite and below %g, got %r"
                             % (BETA_MAX / 2, lam))
    if not np.all(np.isfinite(imgs)):
        raise SmoothingError("non-finite input pixels")
    f_img = rfft2(imgs)
    lap = _laplacian_symbol(*imgs.shape[-2:], f_img.real.dtype)
    s = imgs
    beta = 2.0 * lam
    while beta <= BETA_MAX:
        h, v, keep = threshold_gradients(s, lam, beta)
        if keep.any():
            s = _poisson_solve(f_img, h, v, beta, lap)
        else:
            s = _inverse_solve(f_img.copy(), beta, lap, imgs.shape[-1])
        beta *= KAPPA
    return s


def threshold_gradients(s, lam, beta):
    """(h, v) subproblem: keep the gradient where its energy exceeds lam/beta,
    zero it otherwise. Returns h, v and the mask of the kept gradients."""
    h, v = forward_diff(s)
    energy = h * h
    energy += v * v
    keep = energy > lam / beta
    h *= keep
    v *= keep
    return h, v, keep


def _poisson_solve(f_img, h, v, beta, lap):
    # conj(F dx) F h + conj(F dy) F v is the transform of divergence(h, v)
    numer = rfft2(divergence(h, v))
    numer *= beta
    numer += f_img
    return _inverse_solve(numer, beta, lap, h.shape[-1])


def _inverse_solve(numer, beta, lap, nx):
    """The screened-Poisson solution whose right-hand side has the transform
    numer, which it overwrites."""
    # numpy divides a complex value by a real d as (re * (1/d), im * (1/d)):
    # multiplying by 1/d gives the quotient's bits without complex division
    numer *= 1.0 / (1.0 + beta * lap)
    # the inverse transform one axis at a time scales by 1/ny, then by 1/nx,
    # as numpy.fft.irfft2 does; one 2-D scipy.fft.irfft2 scales by 1/(ny nx),
    # which differs in the last bit when ny is not a power of two
    return irfft(ifft(numer, axis=-2, overwrite_x=True), n=nx, axis=-1)


def _laplacian_symbol(ny, nx, dtype):
    """|F dx|^2 + |F dy|^2 on the rfft2 grid: the eigenvalues of the periodic
    Laplacian dx^T dx + dy^T dy, computed in float64 and held in `dtype`."""
    wy = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny)
    wx = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(nx // 2 + 1) / nx)
    return (wy[:, None] + wx[None, :]).astype(dtype, copy=False)


def smooth_sequence(seq):
    """Filter every frame of a plane sequence independently with weight LAM,
    in the precision of its frames (float32 in the pipeline)."""
    return PlaneSequence(_l0_smooth_stack(seq.frames, LAM))
