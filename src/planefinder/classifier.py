"""One-vs-rest soft-margin SVMs with histogram intersection or linear kernel,
trained by sequential minimal optimization."""

from dataclasses import dataclass

import numpy as np

KKT_TOL = 1e-4
ALPHA_KEEP = 1e-12
# bytes of n x m x d temporaries one hik_matrix block may allocate: L2-sized
HIK_BLOCK_BYTES = 1 << 20


class ClassifierError(Exception):
    pass


def hik_matrix(a, b):
    """HIK Gram block between row sets a (n x d) and b (m x d), in blocks of
    rows of a whose temporaries stay within HIK_BLOCK_BYTES."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.min(initial=0.0) < 0 or b.min(initial=0.0) < 0:
        raise ClassifierError("HIK requires nonnegative inputs")
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, HIK_BLOCK_BYTES // max(1, 8 * b.size))
    for lo in range(0, a.shape[0], rows):
        block = a[lo:lo + rows]
        out[lo:lo + rows] = np.minimum(block[:, None, :], b[None, :, :]).sum(axis=2)
    return out


def kernel_matrix(a, b, kind):
    if kind == "hik":
        return hik_matrix(a, b)
    if kind == "linear":
        return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64).T
    raise ClassifierError("unknown kernel %r" % kind)


@dataclass(frozen=True)
class FeatureScaler:
    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(codes):
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[0] < 2:
        raise ClassifierError("need at least 2 training codes")
    return FeatureScaler(mins=codes.min(axis=0), maxs=codes.max(axis=0))


def apply_scaler(code, scaler):
    """Min-max map into [0,1]; constant dims map to 0.5; out-of-range clamps."""
    code = np.asarray(code, dtype=np.float64)
    span = scaler.maxs - scaler.mins
    const = span <= 0
    safe_span = np.where(const, 1.0, span)
    scaled = np.clip((code - scaler.mins) / safe_span, 0.0, 1.0)
    return np.where(const, 0.5, scaled)


def identity_scaler(dim):
    """The (0, 1) min-max scaler: it returns rows in [0, 1], such as BoW
    histograms, bit for bit."""
    return FeatureScaler(mins=np.zeros(dim), maxs=np.ones(dim))


@dataclass(frozen=True)
class SvmModel:
    support_vectors: np.ndarray
    dual_coefs: np.ndarray  # alpha_i * y_i
    bias: float


@dataclass(frozen=True)
class MulticlassModel:
    """One-vs-rest machines over one code space: one kernel, one scaler."""
    class_ids: tuple
    machines: dict  # class_id -> SvmModel
    kernel: str
    scaler: FeatureScaler


def _smo(gram, y, box, tol=KKT_TOL, max_iter=200000):
    """Maximal-violating-pair SMO for the dual soft-margin problem; returns
    (alpha, bias). Raises ClassifierError if the KKT gap is still above tol
    after max_iter steps."""
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - e'a with Q = yy' * K
    q_diag = np.diag(gram) * 1.0
    for it in range(max_iter + 1):
        ygrad = -y * grad
        up = ((y > 0) & (alpha < box)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < box)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, ygrad, -np.inf)))
        j = int(np.argmin(np.where(low, ygrad, np.inf)))
        gap = ygrad[i] - ygrad[j]
        if gap <= tol:
            break
        if it == max_iter:
            raise ClassifierError("SMO reached its cap of %d iterations with KKT gap "
                                  "%.3g > tol %.3g" % (max_iter, gap, tol))
        qi = y[i] * y * gram[i]
        qj = y[j] * y * gram[j]
        quad = max(q_diag[i] + q_diag[j] - 2.0 * gram[i, j], 1e-12)
        delta = (ygrad[i] - ygrad[j]) / quad
        # step in the direction increasing alpha_i by y_i*delta etc., clipped
        old_i, old_j = alpha[i], alpha[j]
        if y[i] > 0:
            delta = min(delta, box[i] - old_i)
        else:
            delta = min(delta, old_i)
        if y[j] > 0:
            delta = min(delta, old_j)
        else:
            delta = min(delta, box[j] - old_j)
        alpha[i] = old_i + y[i] * delta
        alpha[j] = old_j - y[j] * delta
        grad += qi * (alpha[i] - old_i) + qj * (alpha[j] - old_j)
    # bias from free support vectors, else midpoint of the violation bounds
    free = (alpha > ALPHA_KEEP) & (alpha < box - ALPHA_KEEP)
    if free.any():
        return alpha, float(ygrad[free].mean())
    hi = ygrad[up].max() if up.any() else 0.0
    lo = ygrad[low].min() if low.any() else 0.0
    return alpha, float(0.5 * (hi + lo))


def _fit_svm(zs, gram, y, c, class_weights=None, tol=KKT_TOL):
    """Dual solution on scaled rows zs whose kernel Gram matrix is gram; C is
    scaled by class_weights, (negatives / positives, 1) by default."""
    if class_weights is None:
        class_weights = (float(np.sum(y < 0)) / float(np.sum(y > 0)), 1.0)
    box = np.where(y > 0, c * class_weights[0], c * class_weights[1])
    alpha, bias = _smo(gram, y, box, tol=tol)
    keep = alpha > ALPHA_KEEP
    return SvmModel(support_vectors=zs[keep], dual_coefs=alpha[keep] * y[keep], bias=bias)


def decision_values(clf, z, cid):
    """Decision values of class `cid`'s machine for a (n, d) stack of code
    rows, one per row."""
    if cid not in clf.machines:
        raise ClassifierError("no machine for class %r" % (cid,))
    machine = clf.machines[cid]
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != machine.support_vectors.shape[1]:
        raise ClassifierError("features must be a 2-D stack of width %d, got shape %s"
                              % (machine.support_vectors.shape[1], z.shape))
    k = kernel_matrix(apply_scaler(z, clf.scaler), machine.support_vectors, clf.kernel)
    return k @ machine.dual_coefs + machine.bias


def train_multiclass(z, plane_labels, c=1.0, kernel="hik", scaler=None):
    """One binary machine per standard-plane class against everything else."""
    plane_labels = np.asarray(plane_labels)
    class_ids = sorted(set(int(l) for l in plane_labels if l >= 0))
    if len(class_ids) < 2:
        raise ClassifierError("need at least 2 standard-plane classes")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ClassifierError("non-finite features")
    if scaler is None:
        scaler = fit_scaler(z)
    zs = apply_scaler(z, scaler)
    gram = kernel_matrix(zs, zs, kernel)
    machines = {}
    for cid in class_ids:
        y = np.where(plane_labels == cid, 1.0, -1.0)
        if not np.any(y > 0):
            raise ClassifierError("class %d has no positive samples" % cid)
        machines[cid] = _fit_svm(zs, gram, y, c)
    return MulticlassModel(class_ids=tuple(class_ids), machines=machines, kernel=kernel,
                           scaler=scaler)

