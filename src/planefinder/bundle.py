"""Model bundle: every trained component serialized into one directory."""

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from . import matio
from .classifier import FeatureScaler, MulticlassModel, SvmModel
from .codebook import Codebook, CodebookError
from .config import (ConfigError, PipelineConfig, config_text, load_config, read_fields,
                     save_config)
from .embedding import EmbeddingModel


BUNDLE_FORMAT = "planefinder-bundle-3"


class BundleError(Exception):
    pass


@dataclass(frozen=True)
class ModelBundle:
    config: PipelineConfig
    cb_static: Codebook
    cb_spacetime: Codebook
    embedding: EmbeddingModel
    classifier: MulticlassModel
    content_hash: str = ""

    def with_hash(self):
        return replace(self, content_hash=compute_hash(self))


def _matrices(bundle):
    mats = [
        ("codebook_static", bundle.cb_static.centroids),
        ("codebook_spacetime", bundle.cb_spacetime.centroids),
        ("embed_wx", bundle.embedding.w_x),
        ("embed_wy", bundle.embedding.w_y),
        ("embed_mean_x", bundle.embedding.mean_x),
        ("embed_mean_y", bundle.embedding.mean_y),
    ]
    mats.append(("scaler_mins", bundle.classifier.scaler.mins))
    mats.append(("scaler_maxs", bundle.classifier.scaler.maxs))
    for cid in bundle.classifier.class_ids:
        m = bundle.classifier.machines[cid]
        mats.append(("svm_%d_sv" % cid, m.support_vectors))
        mats.append(("svm_%d_coef" % cid, m.dual_coefs))
    return mats


def _meta_lines(bundle):
    emb = bundle.embedding
    lines = [
        "format=" + BUNDLE_FORMAT,
        "classes=%s" % ",".join(str(c) for c in bundle.classifier.class_ids),
        "embed_c=%d" % emb.c,
        "embed_epsilon=%.17g" % emb.epsilon,
        "embed_train_n=%d" % emb.train_n,
    ]
    for cid in bundle.classifier.class_ids:
        lines.append("svm_%d_bias=%.17g" % (cid, bundle.classifier.machines[cid].bias))
    return lines


def compute_hash(bundle):
    h = hashlib.sha256()
    h.update(config_text(bundle.config).encode())
    for line in _meta_lines(bundle):
        h.update(line.encode())
    for name, arr in _matrices(bundle):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8"))
    return h.hexdigest()


def save_bundle(bundle, out_dir):
    if bundle.classifier.kernel != bundle.config.kernel:  # the loader reads config.txt's
        raise BundleError("classifier kernel %r is not the config's %r"
                          % (bundle.classifier.kernel, bundle.config.kernel))
    os.makedirs(out_dir, exist_ok=True)
    bundle = bundle.with_hash() if not bundle.content_hash else bundle
    for name, arr in _matrices(bundle):
        matio.write_matrix(os.path.join(out_dir, name + ".mat"), arr)
    save_config(bundle.config, os.path.join(out_dir, "config.txt"))
    with open(os.path.join(out_dir, "bundle.manifest"), "w") as fh:
        for line in _meta_lines(bundle):
            fh.write(line + "\n")
        for name, arr in _matrices(bundle):
            shape = np.atleast_2d(arr).shape
            fh.write("matrix=%s %d %d\n" % (name, shape[0], shape[1]))
        fh.write("hash=%s\n" % bundle.content_hash)
    return bundle


def load_bundle(path):
    mpath = os.path.join(path, "bundle.manifest")
    if not os.path.exists(mpath):
        raise BundleError("no bundle.manifest under %s" % path)
    meta = {}
    for _, key, val in read_fields(mpath, BundleError, "bundle manifest"):
        meta.setdefault(key, []).append(val)

    def one(key, parse=str):
        if key not in meta:
            raise BundleError("%s lacks key %r" % (mpath, key))
        if len(meta[key]) > 1:
            raise BundleError("%s key %r appears %d times" % (mpath, key, len(meta[key])))
        try:
            return parse(meta[key][0])
        except ValueError as exc:
            raise BundleError("%s key %r: %s" % (mpath, key, exc)) from exc

    def mat(name, *shape):
        """The matrix, a vector if given one length; None in `shape` is any."""
        try:
            arr = matio.read_matrix(os.path.join(path, name + ".mat"))
        except matio.MatIOError as exc:
            raise BundleError("bundle matrix %s: %s" % (name, exc)) from exc
        arr = arr.ravel() if len(shape) == 1 else arr
        if any(want not in (None, got) for got, want in zip(arr.shape, shape)):
            raise BundleError("bundle matrix %s has shape %s, expected %s"
                              % (name, arr.shape, shape))
        return arr

    fmt = one("format")
    if fmt != BUNDLE_FORMAT:
        raise BundleError("%s: format %r, expected %r" % (mpath, fmt, BUNDLE_FORMAT))
    try:
        cfg = load_config(os.path.join(path, "config.txt"))
    except ConfigError as exc:
        raise BundleError("bundle config: %s" % exc) from exc
    try:
        cb_static = Codebook(centroids=mat("codebook_static"))
        cb_spacetime = Codebook(centroids=mat("codebook_spacetime"))
    except CodebookError as exc:
        raise BundleError("bundle codebook: %s" % exc) from exc
    k_s, k_t, c = cb_static.k, cb_spacetime.k, one("embed_c", int)
    class_ids = one("classes", lambda text: tuple(int(v) for v in text.split(",")))
    machines = {}
    for cid in class_ids:
        sv = mat("svm_%d_sv" % cid, None, c)
        machines[cid] = SvmModel(support_vectors=sv,
                                 dual_coefs=mat("svm_%d_coef" % cid, len(sv)),
                                 bias=one("svm_%d_bias" % cid, float))
    emb = EmbeddingModel(
        w_x=mat("embed_wx", k_s, c), w_y=mat("embed_wy", k_t, c),
        mean_x=mat("embed_mean_x", k_s), mean_y=mat("embed_mean_y", k_t),
        epsilon=one("embed_epsilon", float), train_n=one("embed_train_n", int))
    bundle = ModelBundle(
        config=cfg,
        cb_static=cb_static,
        cb_spacetime=cb_spacetime,
        embedding=emb,
        classifier=MulticlassModel(
            class_ids=class_ids, machines=machines, kernel=cfg.kernel,
            scaler=FeatureScaler(mins=mat("scaler_mins", c), maxs=mat("scaler_maxs", c))),
        content_hash=one("hash"))
    if compute_hash(bundle) != bundle.content_hash:
        raise BundleError("bundle hash mismatch under %s" % path)
    return bundle
