"""Edge-preserving L0 gradient-minimization smoothing of grayscale frames."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import ifft, irfft, rfft2

from .volume import PlaneSequence


class SmoothingError(Exception):
    pass


@dataclass(frozen=True)
class SmoothingConfig:
    lam: float = 0.02
    kappa: float = 2.0
    beta_max: float = 1e5

    def __post_init__(self):
        if self.lam <= 0 or self.kappa <= 1 or self.beta_max <= self.beta0:
            raise SmoothingError("invalid smoothing parameters")

    @property
    def beta0(self):
        return 2.0 * self.lam

    @property
    def n_iterations(self):
        return int(math.ceil(math.log(self.beta_max / self.beta0) / math.log(self.kappa)))


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


def gradient_count(img, tol=1e-6):
    """Number of pixels with a nonzero (above tol) forward gradient."""
    dx, dy = forward_diff(img)
    return int(np.count_nonzero(np.abs(dx) + np.abs(dy) > tol))


def l0_smooth(image, config=None):
    """Half-quadratic L0 gradient minimization with exact periodic FFT solves.

    Minimizes sum_p (S_p - I_p)^2 + lam * #{p : |dxS_p| + |dyS_p| != 0}.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise SmoothingError("expected a 2D grayscale image")
    return _l0_smooth_stack(img[None], config)[0]


def _l0_smooth_stack(imgs, config):
    """L0-smooth every (H, W) image of a (T, H, W) stack in one beta loop, in
    the precision of its transform: float32 for float32 images, else float64.

    rfft2(I) and the Laplacian symbol are loop invariants, so each beta step
    costs one rfft2 and one inverse transform over the whole stack.
    """
    if config is None:
        config = SmoothingConfig()
    if not np.all(np.isfinite(imgs)):
        raise SmoothingError("non-finite input pixels")
    f_img = rfft2(imgs)
    lap = _laplacian_symbol(*imgs.shape[-2:], f_img.real.dtype)
    s = imgs
    beta = config.beta0
    while beta <= config.beta_max:
        h, v = threshold_gradients(s, config.lam, beta)
        s = _poisson_solve(f_img, h, v, beta, lap)
        beta *= config.kappa
    return s


def threshold_gradients(s, lam, beta):
    """(h, v) subproblem: keep the gradient where its energy exceeds lam/beta,
    zero it otherwise."""
    h, v = forward_diff(s)
    keep = h * h + v * v > lam / beta
    h *= keep
    v *= keep
    return h, v


def solve_screened_poisson(img, h, v, beta):
    """Exact periodic solve of min_S ||S-I||^2 + beta(||dxS-h||^2+||dyS-v||^2)."""
    f_img = rfft2(img)
    return _poisson_solve(f_img, h, v, beta, _laplacian_symbol(*img.shape[-2:], f_img.real.dtype))


def _poisson_solve(f_img, h, v, beta, lap):
    # conj(F dx) F h + conj(F dy) F v is the transform of divergence(h, v)
    numer = f_img + beta * rfft2(divergence(h, v))
    # the inverse transform one axis at a time scales by 1/ny, then by 1/nx,
    # as numpy.fft.irfft2 does; one 2-D scipy.fft.irfft2 scales by 1/(ny nx),
    # which differs in the last bit when ny is not a power of two
    return irfft(ifft(numer / (1.0 + beta * lap), axis=-2), n=h.shape[-1], axis=-1)


def _laplacian_symbol(ny, nx, dtype):
    """|F dx|^2 + |F dy|^2 on the rfft2 grid: the eigenvalues of the periodic
    Laplacian dx^T dx + dy^T dy, computed in float64 and held in `dtype`."""
    wy = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny)
    wx = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(nx // 2 + 1) / nx)
    return (wy[:, None] + wx[None, :]).astype(dtype, copy=False)


def smooth_sequence(seq, config=None):
    """Filter every frame of a plane sequence independently, in the precision
    of its frames (float32 in the pipeline)."""
    frames = _l0_smooth_stack(seq.frames, config)
    return PlaneSequence(params=seq.params, frames=frames)
