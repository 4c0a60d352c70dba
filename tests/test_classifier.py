import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import dual_objective, hik, svm_decision
from planefinder import classifier
from planefinder.classifier import (ClassifierError, _fit_svm, apply_scaler, decision_values,
                                    fit_scaler, hik_matrix, identity_scaler, _smo,
                                    kernel_matrix, train_multiclass)


def fit(z, y, c, kernel, **kwargs):
    """One machine on the rows z as given, from their explicit Gram matrix."""
    return _fit_svm(z, kernel_matrix(z, z, kernel), y, c, **kwargs)


def test_hik_basics():
    a = np.array([0.2, 0.5, 0.3])
    b = np.array([0.4, 0.1, 0.5])
    g = hik_matrix(np.stack([a, b]), np.stack([a, b]))
    assert g[0, 1] == pytest.approx(0.2 + 0.1 + 0.3)
    assert g[0, 1] == g[1, 0]
    assert g[0, 0] == pytest.approx(a.sum())
    assert g[0, 1] <= min(a.sum(), b.sum()) + 1e-12


def test_hik_rejects_bad_input():
    with pytest.raises(ClassifierError):
        hik_matrix(np.array([[0.5, -0.1]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ClassifierError):
        hik_matrix(np.array([[0.5, 0.5]]), np.array([[0.5, -0.1]]))


def test_hik_matrix_matches_pairwise():
    rng = np.random.default_rng(0)
    a = rng.random((7, 5))
    b = rng.random((4, 5))
    g = hik_matrix(a, b)
    for i in range(7):
        for j in range(4):
            assert g[i, j] == pytest.approx(hik(a[i], b[j]), abs=1e-12)


def test_hik_gram_positive_semidefinite():
    rng = np.random.default_rng(1)
    data = rng.random((40, 12))
    g = kernel_matrix(data, data, "hik")
    evals = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert evals.min() >= -1e-9


def test_unknown_kernel():
    with pytest.raises(ClassifierError):
        kernel_matrix(np.zeros((2, 2)), np.zeros((2, 2)), "rbf")


def test_scaler_maps_to_unit_box():
    codes = np.array([[0.0, 2.0, 5.0], [4.0, 2.0, 7.0], [2.0, 2.0, 6.0]])
    sc = fit_scaler(codes)
    out = apply_scaler(codes, sc)
    assert np.allclose(out[:, 0], [0.0, 1.0, 0.5])
    assert np.allclose(out[:, 1], 0.5)  # constant dim
    assert np.allclose(out[:, 2], [0.0, 1.0, 0.5])
    # out-of-range clamps
    assert np.allclose(apply_scaler(np.array([-10.0, 9.0, 100.0]), sc),
                       [0.0, 0.5, 1.0])


def test_identity_scaler_passthrough():
    # rows in [0, 1], as BoW histograms are, come back bit for bit; it is the
    # (0, 1) min-max scaler, so anything outside clamps
    rng = np.random.default_rng(16)
    z = np.vstack([rng.random((20, 3)), [0.0, 1.0, 5e-324], [1.0, 0.0, 1.0 - 2.0 ** -53]])
    assert apply_scaler(z, identity_scaler(3)).tobytes() == z.tobytes()
    assert np.array_equal(apply_scaler(np.array([-2.0, 0.5, 7.0]), identity_scaler(3)),
                          [0.0, 0.5, 1.0])


def test_two_point_analytic_solution():
    # f(x) = x separates z=+1/-1 with margin 1: alpha = 0.5, bias = 0
    z = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    m = fit(z, y, 10.0, "linear", class_weights=(1.0, 1.0))
    assert np.allclose(sorted(m.dual_coefs), [-0.5, 0.5], atol=1e-6)
    assert m.bias == pytest.approx(0.0, abs=1e-6)
    assert svm_decision(m, np.array([[0.5]]), "linear") == pytest.approx([0.5], abs=1e-6)


def _oracle_dual(gram, y, box):
    """Independent QP solve of the SVM dual by SLSQP."""
    n = y.shape[0]
    q = (y[:, None] * y[None, :]) * gram

    def neg_dual(a):
        return 0.5 * a @ q @ a - a.sum()

    def grad(a):
        return q @ a - np.ones(n)

    cons = {"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}
    res = minimize(neg_dual, np.zeros(n), jac=grad, method="SLSQP",
                   bounds=[(0.0, b) for b in box], constraints=[cons],
                   options={"maxiter": 500, "ftol": 1e-12})
    return -res.fun


@pytest.mark.parametrize("kernel", ["linear", "hik"])
def test_smo_matches_qp_oracle(kernel):
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = 20
        z = rng.random((n, 4))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if not (np.any(y > 0) and np.any(y < 0)):
            y[0] = -y[0]
        z[y > 0, 0] += 0.3
        c = [0.5, 1.0, 5.0][trial % 3]
        m = fit(z, y, c, kernel, class_weights=(1.0, 1.0))
        gram = kernel_matrix(z, z, kernel)
        # recover the full alpha vector from the kept support vectors
        alpha = np.zeros(n)
        for sv, coef in zip(m.support_vectors, m.dual_coefs):
            idx = int(np.argmin(((z - sv) ** 2).sum(axis=1)))
            alpha[idx] += abs(coef)
        ours = dual_objective(alpha, gram=gram, y=y)
        oracle = _oracle_dual(gram, y, np.full(n, c))
        assert ours >= oracle - 1e-5 * max(1.0, abs(oracle))


def test_kkt_conditions_hold():
    rng = np.random.default_rng(8)
    n = 30
    z = rng.random((n, 3))
    y = np.where(z[:, 0] + 0.2 * rng.normal(size=n) > 0.5, 1.0, -1.0)
    if not (np.any(y > 0) and np.any(y < 0)):
        y[0] = -y[0]
    c = 2.0
    m = fit(z, y, c, "linear", class_weights=(1.0, 1.0))
    alpha = np.zeros(n)
    for sv, coef in zip(m.support_vectors, m.dual_coefs):
        idx = int(np.argmin(((z - sv) ** 2).sum(axis=1)))
        alpha[idx] += abs(coef)
    f = svm_decision(m, z, "linear")
    margin = y * f
    tol = 1e-3
    for i in range(n):
        if alpha[i] <= 1e-8:
            assert margin[i] >= 1.0 - tol
        elif alpha[i] >= c - 1e-8:
            assert margin[i] <= 1.0 + tol
        else:
            assert abs(margin[i] - 1.0) <= tol


def test_duplicated_data_with_halved_c_equivalent():
    rng = np.random.default_rng(9)
    n = 20
    z = rng.random((n, 3))
    y = np.where(z[:, 1] > 0.5, 1.0, -1.0)
    if not (np.any(y > 0) and np.any(y < 0)):
        y[0] = -y[0]
    m1 = fit(z, y, 1.0, "hik", class_weights=(1.0, 1.0))
    m2 = fit(np.vstack([z, z]), np.concatenate([y, y]), 0.5, "hik",
             class_weights=(1.0, 1.0))
    grid = rng.random((15, 3))
    assert np.allclose(svm_decision(m1, grid, "hik"), svm_decision(m2, grid, "hik"),
                       atol=2e-3)


def test_default_class_weights_balance():
    rng = np.random.default_rng(10)
    z = rng.random((12, 2))
    y = np.array([1.0] * 3 + [-1.0] * 9)
    m = fit(z, y, 1.0, "linear")
    # 9 negatives to 3 positives: a positive's alpha may reach 3 C, a negative's C
    alpha = np.abs(m.dual_coefs)
    positive = m.dual_coefs > 0
    assert alpha[positive].max() > 1.0
    assert alpha[positive].max() <= 3.0 and alpha[~positive].max() <= 1.0
    weighted = fit(z, y, 1.0, "linear", class_weights=(3.0, 1.0))
    assert np.array_equal(m.dual_coefs, weighted.dual_coefs) and m.bias == weighted.bias


def test_train_errors():
    with pytest.raises(ClassifierError):
        train_multiclass(np.ones((4, 2)), np.zeros(4))  # one class only
    bad = np.ones((4, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ClassifierError):
        train_multiclass(bad, np.array([0, 0, 1, 1]))


def test_decision_dim_mismatch():
    m = train_multiclass(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]),
                         kernel="linear")
    with pytest.raises(ClassifierError):
        decision_values(m, np.zeros(3), 0)
    # a stack of the wrong width, or a vector or 3-D array of the right width
    for bad in (np.zeros((1, 3)), np.zeros(2), np.zeros((1, 1, 2))):
        with pytest.raises(ClassifierError, match="2-D stack of width 2"):
            decision_values(m, bad, 0)


def test_decision_unknown_class():
    m = train_multiclass(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(ClassifierError, match="no machine for class 2"):
        decision_values(m, np.zeros((1, 2)), 2)


def test_decision_values_scale_then_take_the_kernel():
    # the model's one scaler and one kernel, against every machine
    rng = np.random.default_rng(18)
    z = 3.0 * rng.random((24, 3)) - 1.0
    labels = np.repeat([0, 1, 2, -1], 6)
    grid = 4.0 * rng.random((10, 3)) - 2.0  # partly outside the training range
    for kernel in ("hik", "linear"):
        m = train_multiclass(z, labels, c=2.0, kernel=kernel)
        assert m.kernel == kernel
        for cid in m.class_ids:
            want = svm_decision(m.machines[cid], apply_scaler(grid, m.scaler), kernel)
            assert np.array_equal(decision_values(m, grid, cid), want)


def test_multiclass_three_gaussians():
    rng = np.random.default_rng(11)
    centers = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
    z = np.vstack([c + 0.06 * rng.normal(size=(40, 2)) for c in centers])
    labels = np.repeat([0, 1, 2], 40)
    z = np.clip(z, 0.0, 1.0)
    model = train_multiclass(z, labels, c=5.0, kernel="hik")
    scores = np.column_stack([decision_values(model, z, cid) for cid in model.class_ids])
    # the highest positive score wins; a row with none is no class
    predicted = np.where(scores.max(axis=1) > 0,
                         np.array(model.class_ids)[scores.argmax(axis=1)], -1)
    assert np.mean(predicted == labels) >= 0.95


def test_multiclass_ignores_nonstandard_label():
    rng = np.random.default_rng(12)
    z = np.clip(np.vstack([0.2 + 0.05 * rng.normal(size=(10, 2)),
                           0.8 + 0.05 * rng.normal(size=(10, 2)),
                           rng.random((5, 2))]), 0, 1)
    labels = np.array([0] * 10 + [1] * 10 + [-1] * 5)
    model = train_multiclass(z, labels, kernel="hik")
    assert model.class_ids == (0, 1)


def test_multiclass_needs_two_classes():
    with pytest.raises(ClassifierError):
        train_multiclass(np.random.default_rng(0).random((6, 2)),
                         np.array([0, 0, 0, -1, -1, -1]))


@pytest.mark.parametrize("kernel", ["hik", "linear"])
def test_multiclass_machines_equal_fit_svm_from_one_gram(monkeypatch, kernel):
    rng = np.random.default_rng(15)
    z = rng.random((30, 4))
    labels = np.repeat([0, 1, 2, -1], [8, 8, 8, 6])
    grams = []
    monkeypatch.setattr(classifier, "kernel_matrix",
                        lambda a, b, kind: grams.append(kind) or kernel_matrix(a, b, kind))
    model = train_multiclass(z, labels, c=2.0, kernel=kernel)
    assert grams == [kernel]
    monkeypatch.undo()
    assert model.kernel == kernel
    assert np.array_equal(model.scaler.mins, z.min(axis=0))
    assert np.array_equal(model.scaler.maxs, z.max(axis=0))
    zs = apply_scaler(z, fit_scaler(z))
    for cid in model.class_ids:
        ref = fit(zs, np.where(labels == cid, 1.0, -1.0), 2.0, kernel)
        got = model.machines[cid]
        assert np.array_equal(got.support_vectors, ref.support_vectors)
        assert np.array_equal(got.dual_coefs, ref.dual_coefs)
        assert got.bias == ref.bias


def test_multiclass_rejects_non_finite_codes():
    z = np.random.default_rng(17).random((6, 2))
    z[2, 1] = np.inf
    with pytest.raises(ClassifierError, match="non-finite"):
        train_multiclass(z, np.array([0, 0, 1, 1, -1, -1]))


@pytest.mark.parametrize("budget", [1, 8 * 7 * 5 * 3 + 1])
def test_hik_matrix_blocks_do_not_change_values(monkeypatch, budget):
    # one row per block, then three rows per block, against one block for all
    rng = np.random.default_rng(13)
    a = rng.random((10, 5))
    b = rng.random((7, 5))
    whole = hik_matrix(a, b)
    monkeypatch.setattr(classifier, "HIK_BLOCK_BYTES", budget)
    assert np.array_equal(hik_matrix(a, b), whole)


def test_smo_iteration_cap_raises():
    rng = np.random.default_rng(14)
    z = rng.random((20, 3))
    y = np.where(z[:, 0] > 0.5, 1.0, -1.0)
    gram = kernel_matrix(z, z, "hik")
    box = np.ones(20)
    alpha, _ = _smo(gram, y, box)
    assert np.count_nonzero(alpha) > 2  # one step moves only two alphas
    with pytest.raises(ClassifierError, match=r"cap of 1 iterations with KKT gap \S+ > tol"):
        _smo(gram, y, box, max_iter=1)
