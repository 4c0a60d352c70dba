"""Pipeline configuration: every tunable default, plus key=value file I/O."""

from dataclasses import dataclass, fields, replace


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    # smoothing
    smooth_lambda: float = 0.02
    smooth_kappa: float = 2.0
    smooth_beta_max: float = 1e5
    # static features
    contrast_threshold: float = 0.03
    # spatio-temporal features
    harris_k: float = 0.005
    # codebooks
    k_static: int = 5000
    k_spacetime: int = 1000
    kmeans_seed: int = 7
    kmeans_max_iter: int = 100
    descriptor_cap: int = 200000
    pool_seed: int = 11
    # embedding
    embed_c: int = 32
    embed_epsilon: float = -1.0  # negative -> auto (1e-6 * trace(C)/d)
    # classifier
    svm_c: float = 1.0
    kernel: str = "hik"
    view: str = "fused"  # static | spacetime | fused
    # candidate planes
    candidates_n: int = 400
    candidate_seed: int = 0
    plane_size: int = 128
    pixel_step: float = 1.0

    def validate(self):
        if self.kernel not in ("hik", "linear"):
            raise ConfigError("kernel must be hik or linear")
        if self.view not in ("static", "spacetime", "fused"):
            raise ConfigError("view must be static, spacetime or fused")
        if self.candidates_n < 1 or self.plane_size < 32:
            raise ConfigError("invalid candidate plane settings")
        return self


def read_lines(path, error, what):
    """Lines of a UTF-8 text file, for every text loader: a file that cannot
    be read or is not UTF-8 raises `error`, chained from the cause."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error("cannot read %s %s: %s" % (what, path, exc)) from exc


def load_config(path, base=None):
    """Parse a key=value config file; unknown keys are an error. A file that
    cannot be read, is not UTF-8 or holds a bad value raises ConfigError."""
    cfg = base or PipelineConfig()
    known = {f.name: f.type for f in fields(PipelineConfig)}
    overrides = {}
    for lineno, line in enumerate(read_lines(path, ConfigError, "config"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, lineno))
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                overrides[key] = val.lower() in ("1", "true", "yes")
            elif isinstance(current, int):
                overrides[key] = int(val)
            elif isinstance(current, float):
                overrides[key] = float(val)
            else:
                overrides[key] = val
        except ValueError as exc:
            raise ConfigError("%s:%d: key %r: %s" % (path, lineno, key, exc)) from exc
    return replace(cfg, **overrides).validate()


def save_config(cfg, path):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))


def config_text(cfg):
    lines = []
    for f in fields(PipelineConfig):
        lines.append("%s=%s" % (f.name, getattr(cfg, f.name)))
    return "\n".join(lines) + "\n"
