"""Metric names and units, in BENCHMARK.json order, and their assembly."""

import statistics

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("locate_s", "s"), ("peak_rss_mb", "MB"))

# Spans whose summed self time is a per-layer metric `<span>.s`.
SELF_TIMES = (
    "smoothing.smooth_sequence",
    "features.detect_spacetime_points",
    "features.detect_static_keypoints",
    "features.describe_static",
    "features.describe_spacetime",
    "volume.extract_plane_sequence",
    "volume.generate_candidates",
    "volume.load_volume",
    "codebook.train_codebook",
    "embedding.fit_embedding",
    "codebook.quantize",
    "pipeline.bow_features",
    "pipeline.sequence_descriptors",
    "pipeline.train_pipeline",
    "pipeline.locate_standard_planes",
    "embedding.embed",
    "classifier.decision_values",
    "classifier.train_multiclass",
    "bundle.save_bundle",
    "bundle.load_bundle",
    "synth.build_phantom_dataset",
    "phantom.synth_phantom",
)
COUNTS = (
    ("smoothing.frames", "count"),
    ("features.spacetime_points", "count"),
    ("features.static_keypoints", "count"),
    ("volume.extract_plane_sequence.calls", "count"),
    ("volume.generate_candidates.calls", "count"),
    ("codebook.pool_static", "count"),
    ("codebook.pool_spacetime", "count"),
    ("codebook.quantize.calls", "count"),
    ("codebook.empty_histograms", "count"),
    ("classifier.rows_scored", "count"),
    ("classifier.support_vectors", "count"),
    ("bundle.bytes", "bytes"),
)
# (ratio, numerator count, denominator count)
RATIOS = (
    ("features.static_kept_ratio", "features.static_kept", "features.static_described"),
    ("features.spacetime_kept_ratio", "features.spacetime_kept",
     "features.spacetime_described"),
)
PER_LAYER = (tuple((name + ".s", "s") for name in SELF_TIMES) + COUNTS
             + tuple((name, "ratio") for name, _, _ in RATIOS)
             + (("trace.overhead_s", "s"),))


def end_to_end(setup_s, train_s, locate_s, peak_rss_mb):
    """Medians of the samples, timings in seconds corrected for the host's
    speed (see hostspeed): {name: (value, unit)}. A timing without a
    successful sample is left out."""
    samples = {"setup_s": setup_s, "train_s": train_s, "locate_s": locate_s,
               "peak_rss_mb": [peak_rss_mb]}
    return {name: (statistics.median(samples[name]), unit)
            for name, unit in END_TO_END if samples[name]}


def per_layer(self_s, counts, overhead_s):
    """Every per-layer metric of a traced run from summed self times and
    counts: {name: (value, unit)}."""
    values = {name + ".s": self_s.get(name, 0.0) for name in SELF_TIMES}
    values.update({name: counts.get(name, 0) for name, _ in COUNTS})
    for name, kept, total in RATIOS:
        values[name] = counts.get(kept, 0) / counts[total] if counts.get(total) else 0.0
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def merge(into, more):
    """Add the summed values of `more` to `into`, key by key."""
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into
