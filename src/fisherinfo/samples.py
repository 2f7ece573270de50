"""Sample containers and flat-file I/O.

A sample file is one value per line, or a single-column CSV with an
optional header row. Blank lines and lines starting with '#' are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of real observations."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("SampleSet requires a non-empty 1-d value array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("SampleSet values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_file(cls, path: str | Path) -> "SampleSet":
        path = Path(path)
        vals = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                token = line.split(",")[0].strip()
                try:
                    vals.append(float(token))
                except ValueError:
                    if lineno == 1:  # header row
                        continue
                    raise ValueError(
                        f"{path}:{lineno}: cannot parse {token!r} as a number"
                    ) from None
        if not vals:
            raise ValueError(f"{path}: no samples found")
        return cls(np.array(vals))

    def to_file(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for v in self.values:
                fh.write(f"{float(v)!r}\n")
