"""End-to-end orchestration: training, plane localization, evaluation and
baselines."""

import os
from dataclasses import dataclass, field

import numpy as np

from . import pgm
from .bundle import ModelBundle
from .classifier import decision_values, fit_scaler, identity_scaler, train_multiclass
# quantize stays bound here: the benchmark's traced runs wrap pipeline.quantize
from .codebook import (plane_histograms, quantize, quantize_planes,  # noqa: F401
                       train_codebook)
from .config import PipelineConfig
from .embedding import (build_similarity_matrix, embed, embed_fused, fit_embedding)
from .features import (_records, describe_spacetime, describe_static,
                       detect_spacetime_points, detect_static_keypoints, frame_gradients)
from .smoothing import smooth_sequence
from .volume import (PlaneSequence, extract_plane_sequence, generate_candidates,
                     load_volume, plane_from_center)

KMEANS_SEED = 7
POOL_SEED = 11  # the space-time pool draws with POOL_SEED + 1
DESCRIPTOR_CAP = 200000  # descriptors per codebook pool
CANDIDATE_SEED = 0
# float32 frames one feature pass smooths and filters: 8 planes of 6 32^2
# frames, 2 of 8 48^2 frames, one 64^2 or larger plane
PLANE_BATCH_BYTES = 192 << 10


class PipelineError(Exception):
    pass


@dataclass
class EvaluationReport:
    accuracy: dict = field(default_factory=dict)  # (class_id, condition) -> value
    f1: dict = field(default_factory=dict)        # class_id -> mean F1 over volumes
    # class_id -> share of volumes whose best-scored candidate (ties to the
    # lower index, as in locate) is a ground-truth one
    top1: dict = field(default_factory=dict)


def candidate_planes(dims, cfg):
    return generate_candidates(dims, cfg.candidates_n, CANDIDATE_SEED, cfg.plane_size)


def _plane_sequence(vol, params):
    """The plane resampled in float64 and held in float32: smoothing, DoG and
    Harris3D run in float32, the describers in float64."""
    return PlaneSequence(extract_plane_sequence(vol, params).frames.astype(np.float32))


def sequence_descriptors(vol, params):
    """Full feature path for one candidate plane: resample, smooth, detect and
    describe both feature kinds. Returns the (static, spacetime) record arrays
    of describe_*, each read-only and without its degenerate rows."""
    return _describe_pass(vol, [params])[0]


def describe_planes(vol, planes):
    """sequence_descriptors of each of `planes`, candidate planes of vol that
    share one size, in order, several planes to a pass (see plane_passes)."""
    return [pair for part in plane_passes(vol, planes)
            for pair in _describe_pass(vol, planes[part])]


def plane_passes(vol, planes):
    """Slices of `planes` that one feature pass describes together: as many
    as fit PLANE_BATCH_BYTES of float32 frames, and at least one. Every frame
    is smoothed and filtered on its own, so a pass changes no value; it saves
    the per-call overhead that dominates small planes. The bound is in bytes
    because at 64^2 x 8 two planes to a pass made L0 slower."""
    size = 4 * vol.n_frames * planes[0].height * planes[0].width if planes else 1
    step = max(1, PLANE_BATCH_BYTES // size)
    return [slice(lo, lo + step) for lo in range(0, len(planes), step)]


def _describe_pass(vol, planes):
    """sequence_descriptors of each of `planes` (one size) from one L0, DoG,
    Harris3D and static describe call over the stack of their sequences.
    Static rows are split by their frame, space-time points are described
    per plane, on views of the one frame_gradients triple."""
    n, t = len(planes), vol.n_frames
    raw = np.concatenate([extract_plane_sequence(vol, q).frames for q in planes],
                         dtype=np.float32)
    frames = smooth_sequence(PlaneSequence(raw)).frames
    del raw  # alive through detection, it raised desk's peak RSS
    stack = frames.reshape(n, t, *frames.shape[1:])
    keypoints = detect_static_keypoints(stack)
    pts = detect_spacetime_points(stack) if t >= 5 else np.empty((0, 5))
    # built after detection, so the float64 arrays are not alive during it
    grads = frame_gradients(frames)
    static = describe_static(grads, keypoints)
    edges = [0, *np.searchsorted(keypoints[:, 2], np.arange(1, n) * t), len(static)]
    out = []
    for p in range(n):
        own = pts[pts[:, 2] // t == p]
        own[:, 2] -= p * t
        spacetime = describe_spacetime(tuple(g[p * t:(p + 1) * t] for g in grads), own)
        out.append((_kept(static[edges[p]:edges[p + 1]]), _kept(spacetime)))
    return out


def _kept(descs):
    """describe_*'s read-only, zero-filled record array without its
    degenerate rows: the array itself when it has none, else its other rows
    built zero-filled as it was, so that no padding byte is left unset."""
    fields = np.asarray(descs)
    ok = ~fields["degenerate"]
    return descs if ok.all() else _records(fields["values"][ok], ok[ok])


def bow_features(descs, cb_s, cb_t):
    """Quantize per-plane descriptor pairs into stacked (X, Y) matrices, one
    nearest-centroid search per view."""
    # a field of the plain ndarray view costs a fraction of recarray's lookup
    return (quantize_planes([np.asarray(s)["values"] for s, _ in descs], cb_s),
            quantize_planes([np.asarray(t)["values"] for _, t in descs], cb_t))


class VolumeFeatureCache:
    """Per-volume descriptor cache so repeated evaluations reuse the feature
    path (candidate generation is deterministic from the config)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._volumes = {}
        self._cands = {}
        self._descs = {}

    def volume(self, path):
        if path not in self._volumes:
            self._volumes[path] = load_volume(path)
        return self._volumes[path]

    def candidates(self, path):
        if path not in self._cands:
            self._cands[path] = candidate_planes(self.volume(path).dims, self.cfg)
        return self._cands[path]

    def descriptors(self, path, cand_index):
        """One candidate's descriptor pair, described alone if not cached."""
        key = (path, cand_index)
        if key not in self._descs:
            vol = self.volume(path)
            params = self.candidates(path)[cand_index]
            self._descs[key] = sequence_descriptors(vol, params)
        return self._descs[key]

    def describe(self, path, indices):
        """Descriptor pairs of the volume's candidates `indices`, in order.
        Those not cached are described in passes of describe_planes, in index
        order; a pass that fails raises PipelineError naming the volume and
        the candidates of that pass."""
        todo = sorted({i for i in indices if (path, i) not in self._descs})
        part = todo
        try:
            vol = self.volume(path)
            planes = [self.candidates(path)[i] for i in todo]
            for span in plane_passes(vol, planes):
                part = todo[span]
                self._descs.update(zip([(path, i) for i in part],
                                       _describe_pass(vol, planes[span])))
        except Exception as exc:
            raise PipelineError("feature extraction failed for volume %s candidates %s: %s"
                                % (path, ", ".join(map(str, part)), exc)) from exc
        return [self._descs[(path, i)] for i in indices]

    def all_descriptors(self, path):
        return self.describe(path, range(self.cfg.candidates_n))


@dataclass
class TrainData:
    x: np.ndarray
    y: np.ndarray
    similarity: np.ndarray  # label similarity S between the training records
    plane_classes: np.ndarray
    cb_static: object
    cb_spacetime: object


def prepare_training_data(manifest, cfg, cache=None):
    """Descriptor extraction, codebook training and quantization for every
    labeled training candidate."""
    manifest.validate(candidate_count=cfg.candidates_n)
    cache = cache or VolumeFeatureCache(cfg)
    descs = _record_descriptors(manifest, cache)
    static = [np.asarray(s)["values"] for s, _ in descs]
    spacetime = [np.asarray(t)["values"] for _, t in descs]
    cb_s = train_codebook(_pool(np.concatenate(static), POOL_SEED), cfg.k_static,
                          seed=KMEANS_SEED, max_iter=cfg.kmeans_max_iter,
                          descriptor_kind="static")
    cb_t = train_codebook(_pool(np.concatenate(spacetime), POOL_SEED + 1), cfg.k_spacetime,
                          seed=KMEANS_SEED, max_iter=cfg.kmeans_max_iter,
                          descriptor_kind="spacetime")
    return TrainData(
        x=_training_histograms(static, cb_s), y=_training_histograms(spacetime, cb_t),
        similarity=build_similarity_matrix([rec.plane_onehot for rec in manifest.records],
                                           [rec.diag_onehot for rec in manifest.records]),
        plane_classes=np.array([rec.plane_class for rec in manifest.records]),
        cb_static=cb_s, cb_spacetime=cb_t)


def _training_histograms(planes, cb):
    """quantize_planes(planes, cb) for the planes whose descriptors, in order,
    were pooled to train cb. A pool of all of them (not capped by
    DESCRIPTOR_CAP, which leaves fewer) is quantized by cb's training
    assignment, when it has one; otherwise the planes are searched."""
    sizes = [len(p) for p in planes]
    if cb.pool_assignment is None or len(cb.pool_assignment) != sum(sizes):
        return quantize_planes(planes, cb)
    return plane_histograms(cb.pool_assignment, sizes, cb.k)


def _pool(rows, seed):
    if len(rows) <= DESCRIPTOR_CAP:
        return rows
    rng = np.random.default_rng(seed)
    return rows[np.sort(rng.choice(len(rows), size=DESCRIPTOR_CAP, replace=False))]


def compute_codes(x, y, emb, view):
    if view == "static":
        return embed(x, emb, "static")
    if view == "spacetime":
        return embed(y, emb, "spacetime")
    if view == "fused":
        return embed_fused(x, y, emb)
    raise PipelineError("unknown view %r" % view)


def train_from_data(td, cfg):
    emb = fit_embedding(td.x, td.y, td.similarity, cfg.embed_c)
    codes = compute_codes(td.x, td.y, emb, cfg.view)
    clf = train_multiclass(codes, td.plane_classes, c=cfg.svm_c, kernel=cfg.kernel)
    return ModelBundle(config=cfg, cb_static=td.cb_static,
                       cb_spacetime=td.cb_spacetime, embedding=emb,
                       classifier=clf).with_hash()


def train_pipeline(manifest, cfg, cache=None):
    """Full training path; deterministic for a fixed manifest + config."""
    cfg.validate()
    td = prepare_training_data(manifest, cfg, cache=cache)
    return train_from_data(td, cfg)


def candidate_codes(descs, bundle):
    """Codes of a volume's candidate planes, one row per (static, spacetime)
    descriptor pair."""
    x, y = bow_features(descs, bundle.cb_static, bundle.cb_spacetime)
    return compute_codes(x, y, bundle.embedding, bundle.config.view)


def locate_standard_planes(vol, bundle, plane_class, top_k, cache_descs=None):
    """Rank all candidate planes of a volume by one class's decision value.
    The candidates are generated and described only when `cache_descs` (one
    descriptor pair per candidate) is not given.

    Ties break toward the lower candidate index.
    """
    if top_k < 1:
        raise PipelineError("top_k must be >= 1")
    if plane_class not in bundle.classifier.class_ids:
        raise PipelineError("no machine for plane class %r" % plane_class)
    if cache_descs is None:
        cache_descs = describe_planes(vol, candidate_planes(vol.dims, bundle.config))
    codes = candidate_codes(cache_descs, bundle)
    scores = decision_values(bundle.classifier, codes, plane_class)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(int(i), float(scores[i])) for i in order[:min(top_k, len(scores))]]


def _machine_scores(clf, codes):
    return {cid: decision_values(clf, codes, cid) for cid in clf.class_ids}


def _record_descriptors(manifest, cache):
    """Descriptor pairs of the manifest's records, in order: each volume's
    named candidates are described together, and no others."""
    named = {}
    for r in manifest.records:
        named.setdefault(r.volume, []).append(r.cand_index)
    for path, indices in named.items():
        cache.describe(path, indices)
    return [cache.descriptors(r.volume, r.cand_index) for r in manifest.records]


def _record_features(manifest, cache, cb_s, cb_t):
    """BoW (X, Y) of the manifest's labeled candidates, one row per record."""
    return bow_features(_record_descriptors(manifest, cache), cb_s, cb_t)


def _score(clf, manifest, record_codes=None, volume_codes=None):
    """The one scoring path of product evaluation and the baselines.

    `record_codes` (one row per manifest record) gives the per-class,
    per-condition binary accuracy; `volume_codes` ({volume path: one row per
    candidate}) gives the per-class retrieval F1 and top-1 hit rate against
    the manifest's ground truth, averaged over volumes.
    """
    report = EvaluationReport()
    if record_codes is not None:
        scores = _machine_scores(clf, record_codes)
        plane = np.array([r.plane_class for r in manifest.records])
        cond = np.array([r.condition for r in manifest.records])
        for cid in clf.class_ids:
            pred_pos = scores[cid] > 0
            true_pos = plane == cid
            for condition in ("normal", "abnormal"):
                sel = cond == condition
                if sel.any():
                    report.accuracy[(cid, condition)] = float(
                        np.mean(pred_pos[sel] == true_pos[sel]))
    if volume_codes is not None:
        per_class = {cid: [] for cid in clf.class_ids}
        hits = {cid: [] for cid in clf.class_ids}
        for vol_path, codes in volume_codes.items():
            scores = _machine_scores(clf, codes)
            for cid in clf.class_ids:
                truth = set(manifest.ground_truth(vol_path, cid))
                if not truth:
                    raise PipelineError(
                        "volume %s lacks ground truth for class %d" % (vol_path, cid))
                predicted = set(np.nonzero(scores[cid] > 0)[0].tolist())
                per_class[cid].append(_f1(predicted, truth))
                # argmax takes the first of equal maxima
                hits[cid].append(int(np.argmax(scores[cid])) in truth)
        for cid, values in per_class.items():
            report.f1[cid] = float(np.mean(values))
            report.top1[cid] = float(np.mean(hits[cid]))
    return report


def evaluate_synthetic(bundle, manifest, cache=None):
    """Per-class, per-condition binary accuracy over labeled candidates."""
    manifest.validate(candidate_count=bundle.config.candidates_n)
    cache = cache or VolumeFeatureCache(bundle.config)
    x, y = _record_features(manifest, cache, bundle.cb_static, bundle.cb_spacetime)
    codes = compute_codes(x, y, bundle.embedding, bundle.config.view)
    return _score(bundle.classifier, manifest, record_codes=codes)


def evaluate_volumes(bundle, manifest, cache=None):
    """Retrieval F1 per class: positives among all candidates of each volume
    against the manifest's ground-truth candidate indices, averaged over
    volumes; beside it, the share of volumes whose best candidate is a
    ground-truth one."""
    manifest.validate(candidate_count=bundle.config.candidates_n)
    cache = cache or VolumeFeatureCache(bundle.config)
    codes = {v: candidate_codes(cache.all_descriptors(v), bundle) for v in manifest.volumes}
    return _score(bundle.classifier, manifest, volume_codes=codes)


def _f1(predicted, truth):
    if not predicted:
        return 0.0
    tp = len(predicted & truth)
    precision = tp / len(predicted)
    recall = tp / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# baselines


def _representations(td, cfg):
    """Feature matrices per method, shared across train and test."""
    emb_sup = fit_embedding(td.x, td.y, td.similarity, cfg.embed_c)
    emb_cca = fit_embedding(td.x, td.y, np.eye(len(td.x)), cfg.embed_c)

    def make(x, y, method):
        if method == "static":
            return x
        if method == "spacetime":
            return y
        if method == "concat":
            return np.hstack([x, y])
        if method == "cca":
            return compute_codes(x, y, emb_cca, cfg.view)
        if method == "proposed":
            return compute_codes(x, y, emb_sup, cfg.view)
        raise PipelineError("unknown method %r" % method)

    return make


BASELINE_METHODS = ("static", "spacetime", "concat", "cca", "proposed")


def run_baselines(train_manifest, test_manifest, cfg, methods=BASELINE_METHODS,
                  cache=None):
    """Train and evaluate every method on identical features and SVM settings.

    Returns {method: EvaluationReport}.
    """
    cache = cache or VolumeFeatureCache(cfg)
    td = prepare_training_data(train_manifest, cfg, cache=cache)
    make = _representations(td, cfg)

    test_manifest.validate(candidate_count=cfg.candidates_n)
    tx, ty = _record_features(test_manifest, cache, td.cb_static, td.cb_spacetime)
    vol_feats = {v: bow_features(cache.all_descriptors(v), td.cb_static, td.cb_spacetime)
                 for v in test_manifest.volumes}

    results = {}
    for method in methods:
        z_train = make(td.x, td.y, method)
        scaler = (identity_scaler(z_train.shape[1])
                  if method in ("static", "spacetime", "concat")
                  else fit_scaler(z_train))
        clf = train_multiclass(z_train, td.plane_classes, c=cfg.svm_c,
                               kernel=cfg.kernel, scaler=scaler)
        results[method] = _score(
            clf, test_manifest, record_codes=make(tx, ty, method),
            volume_codes={v: make(vx, vy, method) for v, (vx, vy) in vol_feats.items()})
    return results


def dump_keypoint_overlays(vol, bundle, out_dir):
    """Write original-frame and smoothed-frame overlays of the central axial
    plane with detected static points marked."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = bundle.config if bundle is not None else PipelineConfig()
    nx, ny, nz = vol.dims
    plane = plane_from_center(((nx - 1) / 2, (ny - 1) / 2, (nz - 1) / 2), (0.0, 0.0, 1.0),
                              width=cfg.plane_size, height=cfg.plane_size)
    seq = _plane_sequence(vol, plane)
    smoothed = smooth_sequence(seq)
    written = []
    counts = {}
    for label, frames in (("original", seq.frames), ("smoothed", smoothed.frames)):
        kps = detect_static_keypoints(frames)
        counts[label] = len(kps)
        for t, frame in enumerate(frames):
            overlay = frame.copy()
            for x, y in np.rint(kps[kps[:, 2] == t, :2]).astype(int):
                overlay[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 1.0
            path = os.path.join(out_dir, "%s_%03d.pgm" % (label, t))
            pgm.write_pgm(path, overlay)
            written.append(path)
    return written, counts
