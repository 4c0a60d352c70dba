"""Pipeline configuration: the settings a caller chooses, plus key=value file
I/O. Every other hyper-parameter has one owner in its stage's module."""

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    # codebooks
    k_static: int = 5000
    k_spacetime: int = 1000
    kmeans_max_iter: int = 100
    # embedding; embed_c bounds the code width, which the labels determine
    embed_c: int = 32
    # classifier
    svm_c: float = 1.0
    kernel: str = "hik"
    view: str = "fused"  # static | spacetime | fused
    # candidate planes
    candidates_n: int = 400
    plane_size: int = 128

    def validate(self):
        if self.kernel not in ("hik", "linear"):
            raise ConfigError("kernel must be hik or linear")
        if self.view not in ("static", "spacetime", "fused"):
            raise ConfigError("view must be static, spacetime or fused")
        if self.candidates_n < 1 or self.plane_size < 32:
            raise ConfigError("invalid candidate plane settings")
        if min(self.k_static, self.k_spacetime, self.kmeans_max_iter, self.embed_c) < 1:
            raise ConfigError("k_static, k_spacetime, kmeans_max_iter and embed_c "
                              "must be >= 1")
        if not 0.0 < self.svm_c < math.inf:
            raise ConfigError("svm_c must be positive and finite")
        return self


def read_lines(path, error, what):
    """Lines of a UTF-8 text file, for every text loader: a file that cannot
    be read or is not UTF-8 raises `error`, chained from the cause."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error("cannot read %s %s: %s" % (what, path, exc)) from exc


def read_fields(path, error, what):
    """(line number, key, value) of each key=value line of a text file, key
    and value stripped. Blank lines and lines starting with # are skipped;
    any other line without = raises `error`."""
    for lineno, line in enumerate(read_lines(path, error, what), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise error("%s:%d: expected key=value" % (path, lineno))
        yield lineno, key.strip(), val.strip()


def load_config(path):
    """Parse a key=value config file over the defaults; unknown and repeated
    keys are an error. A file that cannot be read, is not UTF-8 or holds a
    bad value raises ConfigError."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    overrides = {}
    for lineno, key, val in read_fields(path, ConfigError, "config"):
        if key not in known:
            raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
        if key in overrides:
            raise ConfigError("%s:%d: config key %r given twice" % (path, lineno, key))
        try:
            overrides[key] = known[key](val)
        except ValueError as exc:
            raise ConfigError("%s:%d: key %r: %s" % (path, lineno, key, exc)) from exc
    return PipelineConfig(**overrides).validate()


def save_config(cfg, path):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))


def config_text(cfg):
    lines = []
    for f in fields(PipelineConfig):
        lines.append("%s=%s" % (f.name, getattr(cfg, f.name)))
    return "\n".join(lines) + "\n"
