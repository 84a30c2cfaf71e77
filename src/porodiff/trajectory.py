"""Time-series recording shared by the macroscopic and microscopic solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fem import mass_norm


def step_count(t_end, dt):
    """Number of dt steps from 0 to t_end.

    Raises ConfigError unless dt is finite and positive and t_end/dt is
    within 1e-9 (relative) of an integer, so a run never stops short of
    t_end.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be finite and positive, got {dt!r}")
    ratio = t_end / dt
    n = round(ratio) if np.isfinite(ratio) else -1
    if n < 0 or abs(ratio - n) > 1e-9 * abs(ratio):
        raise ConfigError(f"t_end={t_end!r} is not a multiple of dt={dt!r}")
    return n


@dataclass
class Trajectory:
    """Per-step norms, bounds, masses, snapshots, and monitor events.

    The CSV layout is ``t`` followed by ``norm_*``, ``min_*``, ``max_*``,
    ``mass_*`` for every field, in field order.
    """

    field_names: tuple
    times: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)
    events: list = field(default_factory=list)

    def __post_init__(self):
        for name in self.field_names:
            for kind in ("norm", "min", "max", "mass"):
                self.series.setdefault(f"{kind}_{name}", [])

    def record(self, t, fields, mass_matrix, mass_weights, snapshot=False):
        self.times.append(float(t))
        for name, u in fields.items():
            self.series[f"norm_{name}"].append(mass_norm(mass_matrix, u))
            self.series[f"min_{name}"].append(float(u.min()))
            self.series[f"max_{name}"].append(float(u.max()))
            self.series[f"mass_{name}"].append(float(mass_weights @ u))
        if snapshot:
            self.snapshots.append(
                (float(t), {k: v.copy() for k, v in fields.items()}))

    @property
    def columns(self):
        cols = ["t"]
        for kind in ("norm", "min", "max", "mass"):
            cols.extend(f"{kind}_{name}" for name in self.field_names)
        return cols

    def csv_text(self):
        cols = self.columns
        lines = [",".join(cols)]
        for k, t in enumerate(self.times):
            row = [repr(float(t))]
            row.extend(repr(float(self.series[c][k])) for c in cols[1:])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write(self.csv_text())

    def min_over_run(self, name):
        return min(self.series[f"min_{name}"])

    def max_over_run(self, name):
        return max(self.series[f"max_{name}"])
