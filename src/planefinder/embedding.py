"""Supervised cross-view embedding: label-similarity matrix and the
closed-form whitened-SVD solve of the trace maximization."""

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np


# a code column whose singular value is at or below this fraction of the
# largest is dropped: rounding, not the data, would set its direction
SINGULAR_VALUE_FLOOR = 1e-8


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class EmbeddingModel:
    w_x: np.ndarray
    w_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    epsilon: float
    train_n: int
    c = property(lambda self: self.w_x.shape[1])  # code width, as the labels determined it


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle (scipy-openblas, 64-bit interface), or None under another BLAS."""
    here = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*scipy_openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "*scipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _one_blas_thread(fn):
    """Run `fn` on one OpenBLAS thread and restore the count afterwards.

    OpenBLAS splits its SVDs and products by thread count, and the pieces
    round differently, so without the pin a bundle's embedding bits would
    depend on the machine. The count is process-wide: BLAS calls of other
    Python threads run on one thread meanwhile. Under a BLAS without the
    scipy-openblas thread-count symbols, `fn` runs unpinned, and its bits
    may change with the thread count.
    """
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        threads = _openblas_threads()
        if threads is None:
            return fn(*args, **kwargs)
        get, put = threads
        before = get()
        put(1)
        try:
            return fn(*args, **kwargs)
        finally:
            put(before)
    return pinned


def build_similarity_matrix(plane, diagnosis):
    """S from the (n, P) plane and (n, D) diagnosis one-hot rows: 0 between
    different plane types, else 1 + diagnosis agreement."""
    plane = np.asarray(plane, dtype=np.float64)
    diagnosis = np.asarray(diagnosis, dtype=np.float64)
    if len(plane) < 2 or len(plane) != len(diagnosis):
        raise EmbeddingError("need at least 2 labeled samples, with one plane and "
                             "one diagnosis row each")
    return np.where(plane @ plane.T > 0, 1.0 + diagnosis @ diagnosis.T, 0.0)


def _centred(v):
    """(column means, v less them). A view whose centred norm is within the
    rounding of its mean, |v - mean| <= n 2^-52 |v|, is constant: its centred
    rows become exact zeros, so that rounding cannot set a code column."""
    mean = v.mean(axis=0)
    vc = v - mean
    if np.vdot(vc, vc) <= (len(v) * 2.0 ** -52) ** 2 * np.vdot(v, v):
        vc[...] = 0.0
    return mean, vc


def _whitener(xc, c, epsilon):
    """Thin SVD xc = U diag(s) V^T of one centered view, and the weights a
    with (C + eps*I)^(-1/2) = V diag(a) V^T on span(V), C = xc^T xc / n.

    V has min(n, d) columns, so no d x d matrix is formed when d > n.
    Returns (U diag(s), a, V).
    """
    n = xc.shape[0]
    u, sv, vt = np.linalg.svd(xc, full_matrices=False)
    evals = sv ** 2 / n + epsilon
    top = max(evals.max(), 1e-300)
    if epsilon == 0.0:
        rank = int(np.sum(evals > 1e-10 * top))
        if rank < c:
            raise EmbeddingError(
                "covariance rank %d below c=%d with epsilon=0; supply epsilon > 0"
                % (rank, c)
            )
    a = 1.0 / np.sqrt(np.maximum(evals, 1e-15 * top))
    return u * sv, a, vt.T


@_one_blas_thread
def fit_embedding(x, y, s, c, epsilon=None):
    """Closed-form solve of the supervised trace maximization.

    Centers both views, whitens with C + eps*I, and takes the top-c singular
    directions of the whitened cross matrix X^T S Y / n. That matrix lies in
    span(V_x) x span(V_y) of the two views' thin SVDs, so its SVD is taken
    from the min(n, d_x) x min(n, d_y) matrix of its coordinates there (the
    sample-space form of CCA when d > n; the primal form when n > d). Code
    columns past its numerical rank are dropped; EmbeddingError if none is left.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n, d_x = x.shape
    d_y = y.shape[1]
    if y.shape[0] != n or s.shape != (n, n):
        raise EmbeddingError("row counts of X, Y and S must agree")

    mean_x, xc = _centred(x)
    mean_y, yc = _centred(y)

    if epsilon is None:
        # 1e-6 times the mean of trace(C)/d over the two views
        epsilon = 1e-6 * 0.5 * ((xc ** 2).sum() / (n * d_x) + (yc ** 2).sum() / (n * d_y))

    usx, a_x, v_x = _whitener(xc, c, epsilon)
    usy, a_y, v_y = _whitener(yc, c, epsilon)
    u, sv, vt = np.linalg.svd((usx * a_x).T @ s @ (usy * a_y) / n, full_matrices=False)
    c = int(np.count_nonzero(sv[:c] > SINGULAR_VALUE_FLOOR * sv[0]))
    if c == 0:
        raise EmbeddingError("the whitened cross matrix is zero: no code column is live")
    u, v = u[:, :c], vt[:c].T
    # sign convention: largest-magnitude entry of each whitened basis column
    # V_x u positive; the paired Y column flips with it
    basis = v_x @ u
    sign = np.where(basis[np.argmax(np.abs(basis), axis=0), np.arange(c)] < 0, -1.0, 1.0)
    w_x = v_x @ (a_x[:, None] * u * sign)
    w_y = v_y @ (a_y[:, None] * v * sign)
    return EmbeddingModel(w_x=w_x, w_y=w_y, mean_x=mean_x, mean_y=mean_y,
                          epsilon=float(epsilon), train_n=n)


@_one_blas_thread
def embed(features, model, view="static"):
    """Project one feature vector (or a stack) into the compact code space."""
    f = np.asarray(features, dtype=np.float64)
    if view == "static":
        return (f - model.mean_x) @ model.w_x
    if view == "spacetime":
        return (f - model.mean_y) @ model.w_y
    raise EmbeddingError("unknown view %r" % view)


def embed_fused(x, y, model):
    """Elementwise average of the two per-view codes."""
    return 0.5 * (embed(x, model, "static") + embed(y, model, "spacetime"))

