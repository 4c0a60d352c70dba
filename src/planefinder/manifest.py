"""Dataset manifests: labeled candidate planes per volume, tab-separated."""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import read_lines
from .embedding import SemanticLabels


class ManifestError(Exception):
    pass


@dataclass(frozen=True)
class ManifestRecord:
    volume: str  # path to the .vol4 header
    cand_index: int
    plane_onehot: tuple
    diag_onehot: tuple
    condition: str  # normal | abnormal

    def __post_init__(self):
        for name in ("plane_onehot", "diag_onehot"):
            values = getattr(self, name)
            if sorted(values) != [0] * (len(values) - 1) + [1]:
                raise ManifestError("%s %s is not one-hot" % (name, ",".join(map(str, values))))

    @property
    def plane_class(self):
        """Class id of a standard plane, or -1 for the non-standard slot."""
        idx = self.plane_onehot.index(1)  # one-hot, checked on construction
        return idx if idx < len(self.plane_onehot) - 1 else -1

    @property
    def labels(self):
        return SemanticLabels(plane=np.asarray(self.plane_onehot, dtype=np.float64),
                              diagnosis=np.asarray(self.diag_onehot, dtype=np.float64))


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple

    @property
    def volumes(self):
        return list(dict.fromkeys(r.volume for r in self.records))

    @cached_property
    def _truth(self):
        """{(volume, plane class): sorted candidate indices}, from one read
        of each record's plane_class."""
        truth = {}
        for r in self.records:
            truth.setdefault((r.volume, r.plane_class), []).append(r.cand_index)
        for indices in truth.values():
            indices.sort()
        return truth

    @property
    def plane_classes(self):
        return sorted({cls for _, cls in self._truth if cls >= 0})

    def ground_truth(self, volume, plane_class):
        """Candidate indices labeled as that standard plane in a volume."""
        return list(self._truth.get((volume, plane_class), ()))

    def validate(self, candidate_count=None):
        if not self.records:
            raise ManifestError("empty manifest")
        exists = {}
        for r in self.records:
            if r.volume not in exists:
                exists[r.volume] = os.path.exists(r.volume)
            if not exists[r.volume]:
                raise ManifestError("missing volume file %s" % r.volume)
            if r.cand_index < 0 or (candidate_count is not None
                                    and r.cand_index >= candidate_count):
                raise ManifestError(
                    "candidate index %d out of range for %s" % (r.cand_index, r.volume)
                )
            if r.condition not in ("normal", "abnormal"):
                raise ManifestError("bad condition flag %r" % r.condition)
        for name in ("plane_onehot", "diag_onehot"):
            lengths = sorted({len(getattr(r, name)) for r in self.records})
            if len(lengths) > 1:
                raise ManifestError("%s lengths differ between records: %s" % (name, lengths))
        classes = self.plane_classes
        for vol in self.volumes:
            for cls in classes:
                if (vol, cls) not in self._truth:
                    raise ManifestError(
                        "volume %s lacks ground truth for class %d" % (vol, cls)
                    )
        return self


def write_manifest(manifest, path):
    with open(path, "w") as fh:
        for r in manifest.records:
            fh.write("%s\t%d\t%s\t%s\t%s\n" % (
                r.volume, r.cand_index,
                ",".join(str(int(v)) for v in r.plane_onehot),
                ",".join(str(int(v)) for v in r.diag_onehot),
                r.condition))


def read_manifest(path):
    base = os.path.dirname(os.path.abspath(path))
    records = []
    for lineno, line in enumerate(read_lines(path, ManifestError, "manifest"), 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ManifestError("%s:%d: expected 5 tab-separated fields" % (path, lineno))
        vol = parts[0]
        if not os.path.isabs(vol):
            vol = os.path.join(base, vol)
        try:
            records.append(ManifestRecord(
                volume=vol,
                cand_index=int(parts[1]),
                plane_onehot=tuple(int(v) for v in parts[2].split(",")),
                diag_onehot=tuple(int(v) for v in parts[3].split(",")),
                condition=parts[4]))
        except (ValueError, ManifestError) as exc:
            raise ManifestError("%s:%d: %s" % (path, lineno, exc)) from exc
    return DatasetManifest(records=tuple(records))
