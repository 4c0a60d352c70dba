import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import inv, sqrtm, subspace_angles

from oracles import embedding_objective, semantic_similarity, trace_objective
import planefinder
from planefinder import embedding
from planefinder.embedding import (EmbeddingError, SemanticLabels,
                                   build_similarity_matrix, embed, embed_fused,
                                   fit_embedding)


def onehot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def labels(plane, diag, n_plane=4, n_diag=2):
    return SemanticLabels(plane=onehot(plane, n_plane), diagnosis=onehot(diag, n_diag))


def random_problem(rng, n=40, d_x=12, d_y=9):
    x = rng.random((n, d_x))
    y = rng.random((n, d_y))
    labs = [labels(int(rng.integers(4)), int(rng.integers(2))) for _ in range(n)]
    return x, y, build_similarity_matrix(labs)


def test_label_one_hot_enforced():
    with pytest.raises(EmbeddingError):
        SemanticLabels(plane=np.array([1.0, 1.0, 0.0]), diagnosis=np.array([1.0, 0.0]))
    with pytest.raises(EmbeddingError):
        SemanticLabels(plane=np.array([0.5, 0.5]), diagnosis=np.array([1.0, 0.0]))


def test_similarity_values():
    a = labels(0, 0)
    assert semantic_similarity(a, labels(1, 0)) == 0.0
    assert semantic_similarity(a, labels(0, 1)) == 1.0
    assert semantic_similarity(a, labels(0, 0)) == 2.0
    assert semantic_similarity(a, a) == 2.0


def test_similarity_symmetric_and_dim_checked():
    a, b = labels(2, 1), labels(2, 0)
    assert semantic_similarity(a, b) == semantic_similarity(b, a)
    with pytest.raises(EmbeddingError):
        semantic_similarity(a, SemanticLabels(plane=onehot(0, 3),
                                              diagnosis=onehot(0, 2)))


def test_similarity_matrix_matches_pairwise():
    rng = np.random.default_rng(0)
    labs = [labels(int(rng.integers(4)), int(rng.integers(2))) for _ in range(15)]
    s = build_similarity_matrix(labs)
    for i in range(15):
        for j in range(15):
            assert s[i, j] == semantic_similarity(labs[i], labs[j])


def test_fit_shape_and_determinism():
    rng = np.random.default_rng(1)
    x, y, s = random_problem(rng)
    m1 = fit_embedding(x, y, s, c=5)
    m2 = fit_embedding(x, y, s, c=5)
    assert m1.w_x.shape == (12, 5) and m1.w_y.shape == (9, 5)
    assert np.array_equal(m1.w_x, m2.w_x) and np.array_equal(m1.w_y, m2.w_y)


def test_fit_permutation_invariant():
    rng = np.random.default_rng(2)
    x, y, s = random_problem(rng)
    perm = rng.permutation(x.shape[0])
    a = fit_embedding(x, y, s, c=4, epsilon=1e-4)
    b = fit_embedding(x[perm], y[perm], s[np.ix_(perm, perm)], c=4, epsilon=1e-4)
    assert np.allclose(a.w_x, b.w_x, atol=1e-9)
    assert np.allclose(a.w_y, b.w_y, atol=1e-9)


def test_whitening_constraints_hold():
    rng = np.random.default_rng(3)
    x, y, s = random_problem(rng)
    eps = 1e-3
    m = fit_embedding(x, y, s, c=6, epsilon=eps)
    n = x.shape[0]
    xc = x - m.mean_x
    yc = y - m.mean_y
    cxx = xc.T @ xc / n + eps * np.eye(x.shape[1])
    cyy = yc.T @ yc / n + eps * np.eye(y.shape[1])
    assert np.abs(m.w_x.T @ cxx @ m.w_x - np.eye(6)).max() <= 1e-8
    assert np.abs(m.w_y.T @ cyy @ m.w_y - np.eye(6)).max() <= 1e-8


def test_matches_independent_whitened_svd():
    # independent oracle: scipy sqrtm/inv route to the same maximizer, compared
    # through the invariant trace objective (basis signs are convention-free)
    rng = np.random.default_rng(4)
    x, y, s = random_problem(rng, n=30, d_x=8, d_y=7)
    eps, c = 1e-3, 4
    m = fit_embedding(x, y, s, c=c, epsilon=eps)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cxx = xc.T @ xc / n + eps * np.eye(8)
    cyy = yc.T @ yc / n + eps * np.eye(7)
    isx = np.real(sqrtm(inv(cxx)))
    isy = np.real(sqrtm(inv(cyy)))
    u, sv, vt = np.linalg.svd(isx @ (xc.T @ s @ yc / n) @ isy)
    wx_o = isx @ u[:, :c]
    wy_o = isy @ vt[:c].T
    t_fit = trace_objective(xc, yc, m.w_x, m.w_y, s)
    t_oracle = trace_objective(xc, yc, wx_o, wy_o, s)
    assert t_fit == pytest.approx(t_oracle, rel=1e-9)
    assert t_fit == pytest.approx(n * sv[:c].sum(), rel=1e-9)


@pytest.mark.parametrize("similarity, c", [("identity", 10), ("labels", 12)])
def test_more_features_than_samples_matches_primal_oracle(similarity, c):
    # d > n, as in training on real codebooks; the labels' S has rank 8 < c,
    # so only the directions with non-zero singular values are determined
    rng = np.random.default_rng(12)
    n, d_x, d_y, eps = 30, 120, 40, 1e-3
    x, y, s = random_problem(rng, n=n, d_x=d_x, d_y=d_y)
    if similarity == "identity":
        s = np.eye(n)
    m = fit_embedding(x, y, s, c=c, epsilon=eps)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cxx = xc.T @ xc / n + eps * np.eye(d_x)
    cyy = yc.T @ yc / n + eps * np.eye(d_y)
    isx = np.real(sqrtm(inv(cxx)))
    isy = np.real(sqrtm(inv(cyy)))
    u, sv, vt = np.linalg.svd(isx @ (xc.T @ s @ yc / n) @ isy)
    live = sv[:c] > 1e-9 * sv[0]
    assert live.sum() == (c if similarity == "identity" else 7)
    # whitened identity on the live columns; the columns the data leave
    # undetermined are exact zeros
    assert np.abs(m.w_x.T @ cxx @ m.w_x - np.diag(live)).max() <= 1e-8
    assert np.abs(m.w_y.T @ cyy @ m.w_y - np.diag(live)).max() <= 1e-8
    assert not m.w_x[:, ~live].any() and not m.w_y[:, ~live].any()
    assert trace_objective(xc, yc, m.w_x, m.w_y, s) == pytest.approx(n * sv[:c].sum(),
                                                                     rel=1e-9)
    assert subspace_angles(m.w_x[:, live], (isx @ u[:, :c])[:, live]).max() <= 1e-6
    assert subspace_angles(m.w_y[:, live], (isy @ vt[:c].T)[:, live]).max() <= 1e-6


def test_codes_do_not_follow_rounding():
    # the labels' S leaves 5 of the 12 directions undetermined; a relative
    # perturbation of 1e-12 must not move any code column
    rng = np.random.default_rng(12)
    x, y, s = random_problem(rng, n=30, d_x=120, d_y=40)
    m = fit_embedding(x, y, s, c=12, epsilon=1e-3)
    bumped = x * (1.0 + 1e-12 * rng.standard_normal(x.shape))
    m2 = fit_embedding(bumped, y, s, c=12, epsilon=1e-3)
    for view, feats in (("static", x), ("spacetime", y)):
        assert np.abs(embed(feats, m, view) - embed(feats, m2, view)).max() <= 1e-6


def test_trace_objective_is_maximal_over_random_feasible():
    rng = np.random.default_rng(5)
    x, y, s = random_problem(rng, n=25, d_x=6, d_y=5)
    eps, c = 1e-3, 1
    m = fit_embedding(x, y, s, c=c, epsilon=eps)
    n = x.shape[0]
    xc = x - m.mean_x
    yc = y - m.mean_y
    cxx = xc.T @ xc / n + eps * np.eye(6)
    cyy = yc.T @ yc / n + eps * np.eye(5)
    t_fit = trace_objective(xc, yc, m.w_x, m.w_y, s)
    for trial in range(100):
        wx = rng.normal(size=(6, 1))
        wy = rng.normal(size=(5, 1))
        wx /= np.sqrt(wx.T @ cxx @ wx)
        wy /= np.sqrt(wy.T @ cyy @ wy)
        t = abs(trace_objective(xc, yc, wx, wy, s))
        assert t <= t_fit + 1e-9


def test_frobenius_objective_expansion():
    # ||(1/c) Zx Zy^T - S||^2 = ||(1/c) Zx Zy^T||^2 + ||S||^2 - (2/c) trace term
    rng = np.random.default_rng(6)
    x, y, s = random_problem(rng, n=20, d_x=6, d_y=5)
    c = 3
    wx = rng.normal(size=(6, c))
    wy = rng.normal(size=(5, c))
    a = (x @ wx) @ (y @ wy).T / c
    lhs = embedding_objective(x, y, wx, wy, s, c)
    rhs = (a ** 2).sum() + (s ** 2).sum() - 2.0 / c * trace_objective(x, y, wx, wy, s)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_rank_deficient_epsilon_zero_raises():
    rng = np.random.default_rng(7)
    base = rng.random((30, 2))
    x = base @ rng.random((2, 10))  # rank 2
    y = rng.random((30, 6))
    labs = [labels(i % 3, i % 2) for i in range(30)]
    s = build_similarity_matrix(labs)
    with pytest.raises(EmbeddingError, match="rank"):
        fit_embedding(x, y, s, c=5, epsilon=0.0)


def test_more_features_than_samples_epsilon_zero_raises():
    # centered, 30 samples span at most 29 directions of the 120 features
    rng = np.random.default_rng(13)
    x, y, s = random_problem(rng, n=30, d_x=120, d_y=40)
    with pytest.raises(EmbeddingError, match="rank 29 below c=30"):
        fit_embedding(x, y, s, c=30, epsilon=0.0)


def test_epsilon_auto_value():
    rng = np.random.default_rng(8)
    x, y, s = random_problem(rng)
    m = fit_embedding(x, y, s, c=4)
    n, d_x = x.shape
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    expect = 1e-6 * 0.5 * (np.trace(xc.T @ xc / n) / d_x
                           + np.trace(yc.T @ yc / n) / y.shape[1])
    assert m.epsilon == pytest.approx(expect, rel=1e-12)


def test_c_too_large_and_shape_mismatch():
    rng = np.random.default_rng(9)
    x, y, s = random_problem(rng, n=20, d_x=6, d_y=5)
    with pytest.raises(EmbeddingError):
        fit_embedding(x, y, s, c=6)
    with pytest.raises(EmbeddingError):
        fit_embedding(x[:10], y, s, c=2)


def test_embed_shapes_and_fusion():
    rng = np.random.default_rng(10)
    x, y, s = random_problem(rng)
    m = fit_embedding(x, y, s, c=5)
    zx = embed(x, m, "static")
    zy = embed(y, m, "spacetime")
    assert zx.shape == (40, 5) and zy.shape == (40, 5)
    assert np.allclose(embed_fused(x, y, m), 0.5 * (zx + zy), atol=1e-12)
    assert embed(x[0], m, "static").shape == (5,)
    with pytest.raises(EmbeddingError):
        embed(x, m, "both")


def test_supervised_codes_separate_classes():
    # latent two-class structure: same-class pairs end up closer in code space
    rng = np.random.default_rng(11)
    n = 60
    cls = np.arange(n) % 2
    lat = np.where(cls == 1, 1.0, -1.0)[:, None]
    x = lat @ rng.normal(size=(1, 10)) + 0.3 * rng.normal(size=(n, 10))
    y = lat @ rng.normal(size=(1, 8)) + 0.3 * rng.normal(size=(n, 8))
    labs = [labels(int(c), 0, n_plane=3) for c in cls]
    s = build_similarity_matrix(labs)
    m = fit_embedding(x, y, s, c=2)
    z = embed_fused(x, y, m)
    same = [np.linalg.norm(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)
            if cls[i] == cls[j]]
    diff = [np.linalg.norm(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)
            if cls[i] != cls[j]]
    assert np.mean(same) < 0.5 * np.mean(diff)


# fit's static view: 200 planes of 2,000-word histograms, mostly empty bins;
# prints the code bits and the thread count before and after the calls
THREAD_PROBE = """
import hashlib
import numpy as np
from planefinder.embedding import _openblas_threads, embed, fit_embedding
get, _ = _openblas_threads()
before = get()
rng = np.random.default_rng(0)
x = rng.random((200, 2000)) * (rng.random((200, 2000)) < 0.01)
y = rng.random((200, 200)) * (rng.random((200, 200)) < 0.05)
cls = np.arange(200) % 7
m = fit_embedding(x, y, (cls[:, None] == cls[None, :]) + np.eye(200), 32)
h = hashlib.sha256()
for a in (m.w_x, m.w_y, embed(x, m, "static"), embed(y, m, "spacetime")):
    h.update(a.tobytes())
print(h.hexdigest(), before, get())
"""


@pytest.mark.skipif(embedding._openblas_threads() is None,
                    reason="numpy's BLAS exports no scipy-openblas thread-count symbols")
def test_embedding_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(planefinder.__file__)))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        runs[threads] = out
    assert runs["1"][0] == runs["2"][0]
    # the pin restores the count it found
    assert runs["2"][1] == runs["2"][2]
