"""Where a traced run wraps planefinder, and the counters it derives.

Each probe wraps a function at the name its caller looks up: `pipeline`
binds imported names at import time, so `planefinder.pipeline.smooth_sequence`
is wrapped rather than `planefinder.smoothing.smooth_sequence`. Span names are
`<module>.<function>` of the function's home module.
"""

import importlib
import os


def _add(name, value):
    return lambda tr, args, kwargs, result: tr.count(name, value(args, kwargs, result))


def _described(kind):
    def on_return(tr, args, kwargs, result):
        tr.count("features.%s_described" % kind, len(result))
        tr.count("features.%s_kept" % kind, sum(not d.degenerate for d in result))
    return on_return


def _pool(tr, args, kwargs, result):
    tr.count("codebook.pool_" + kwargs.get("descriptor_kind", "static"), len(args[0]))


def _rows(args, kwargs, result):
    return 1 if args[1].ndim == 1 else args[1].shape[0]


def _dir_bytes(args, kwargs, result):
    out = args[1]
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


# (module, attribute, span name, counter hook)
PROBES = (
    ("planefinder.synth", "build_phantom_dataset", "synth.build_phantom_dataset", None),
    ("planefinder.synth", "synth_phantom", "phantom.synth_phantom", None),
    ("planefinder.volume", "load_volume", "volume.load_volume", None),
    ("planefinder.pipeline", "load_volume", "volume.load_volume", None),
    ("planefinder.pipeline", "generate_candidates", "volume.generate_candidates", None),
    ("planefinder.pipeline", "extract_plane_sequence", "volume.extract_plane_sequence", None),
    ("planefinder.pipeline", "smooth_sequence", "smoothing.smooth_sequence",
     _add("smoothing.frames", lambda a, k, r: len(r.frames))),
    ("planefinder.pipeline", "detect_static_keypoints", "features.detect_static_keypoints",
     _add("features.static_keypoints", lambda a, k, r: len(r))),
    ("planefinder.pipeline", "describe_static", "features.describe_static",
     _described("static")),
    ("planefinder.pipeline", "detect_spacetime_points", "features.detect_spacetime_points",
     _add("features.spacetime_points", lambda a, k, r: len(r))),
    ("planefinder.pipeline", "describe_spacetime", "features.describe_spacetime",
     _described("spacetime")),
    ("planefinder.pipeline", "sequence_descriptors", "pipeline.sequence_descriptors", None),
    ("planefinder.pipeline", "train_codebook", "codebook.train_codebook", _pool),
    ("planefinder.pipeline", "quantize", "codebook.quantize",
     _add("codebook.empty_histograms", lambda a, k, r: int(r.empty))),
    ("planefinder.pipeline", "bow_features", "pipeline.bow_features", None),
    ("planefinder.pipeline", "fit_embedding", "embedding.fit_embedding", None),
    ("planefinder.pipeline", "embed", "embedding.embed", None),
    ("planefinder.pipeline", "embed_fused", "embedding.embed", None),
    ("planefinder.pipeline", "train_multiclass", "classifier.train_multiclass",
     _add("classifier.support_vectors", lambda a, k, r: sum(
         m.support_vectors.shape[0] for m in r.machines.values()))),
    ("planefinder.pipeline", "decision_values", "classifier.decision_values",
     _add("classifier.rows_scored", _rows)),
    ("planefinder.pipeline", "train_pipeline", "pipeline.train_pipeline", None),
    ("planefinder.pipeline", "locate_standard_planes", "pipeline.locate_standard_planes",
     None),
    ("planefinder.bundle", "save_bundle", "bundle.save_bundle", _add("bundle.bytes", _dir_bytes)),
    ("planefinder.bundle", "load_bundle", "bundle.load_bundle", None),
)


def install(tracer):
    """Wrap every probe; `tracer.restore()` undoes it."""
    for module, attr, name, hook in PROBES:
        tracer.wrap(importlib.import_module(module), attr, name, hook)

