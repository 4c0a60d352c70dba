"""Supervised cross-view embedding: label-similarity matrix and the
closed-form whitened-SVD solve of the trace maximization."""

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np


# a code column whose singular value is at or below this fraction of the
# largest is zero: rounding, not the data, would set its direction
SINGULAR_VALUE_FLOOR = 1e-8


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class SemanticLabels:
    """One-hot plane label (last slot = non-standard) and diagnosis label
    (last slot = normal)."""

    plane: np.ndarray
    diagnosis: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.plane, dtype=np.float64)
        d = np.asarray(self.diagnosis, dtype=np.float64)
        for vec, name in ((p, "plane"), (d, "diagnosis")):
            if vec.ndim != 1 or np.count_nonzero(vec == 1.0) != 1 \
                    or np.count_nonzero(vec) != 1:
                raise EmbeddingError("%s label must be one-hot" % name)
        p.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "plane", p)
        object.__setattr__(self, "diagnosis", d)


@dataclass(frozen=True)
class EmbeddingModel:
    w_x: np.ndarray
    w_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    c: int
    epsilon: float
    train_n: int


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


def build_similarity_matrix(labels):
    n = len(labels)
    if n < 2:
        raise EmbeddingError("need at least 2 labeled samples")
    planes = np.stack([l.plane for l in labels])
    diags = np.stack([l.diagnosis for l in labels])
    plane_dot = planes @ planes.T
    s = np.where(plane_dot > 0, 1.0 + diags @ diags.T, 0.0)
    return s


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
    columns past the matrix's numerical rank (SINGULAR_VALUE_FLOOR) are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n, d_x = x.shape
    d_y = y.shape[1]
    if y.shape[0] != n or s.shape != (n, n):
        raise EmbeddingError("row counts of X, Y and S must agree")
    if c > min(d_x, d_y, n):
        raise EmbeddingError("c=%d exceeds min(d_x, d_y, n)=%d" % (c, min(d_x, d_y, n)))

    mean_x = x.mean(axis=0)
    mean_y = y.mean(axis=0)
    xc = x - mean_x
    yc = y - mean_y

    if epsilon is None:
        # 1e-6 times the mean of trace(C)/d over the two views
        epsilon = 1e-6 * 0.5 * ((xc ** 2).sum() / (n * d_x) + (yc ** 2).sum() / (n * d_y))

    usx, a_x, v_x = _whitener(xc, c, epsilon)
    usy, a_y, v_y = _whitener(yc, c, epsilon)
    u, sv, vt = np.linalg.svd((usx * a_x).T @ s @ (usy * a_y) / n, full_matrices=False)
    live = sv[:c] > SINGULAR_VALUE_FLOOR * sv[0]
    u = u[:, :c] * live
    v = vt[:c].T * live
    # sign convention: largest-magnitude entry of each whitened basis column
    # V_x u positive; the paired Y column flips with it
    basis = v_x @ u
    sign = np.where(basis[np.argmax(np.abs(basis), axis=0), np.arange(c)] < 0, -1.0, 1.0)
    w_x = v_x @ (a_x[:, None] * u * sign)
    w_y = v_y @ (a_y[:, None] * v * sign)
    return EmbeddingModel(w_x=w_x, w_y=w_y, mean_x=mean_x, mean_y=mean_y,
                          c=c, epsilon=float(epsilon), train_n=n)


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

