"""Direct simulation of the epsilon-periodic three-species system.

Volume diffusion is implicit, volume reactions explicit. The pair exchange
flux on the inclusion boundaries is the stiff term: under the fast scaling it
carries a 1/epsilon factor, so it is folded implicitly into a symmetric
(c1, c2) block with the exchange rate lagged one step; explicit treatment
would force dt = O(eps h) and make epsilon sweeps unaffordable. The slow
surface reaction of the third species is explicit (it carries an epsilon
factor and is never stiff). The implicit block is SPD for any dt, eps > 0 and
nonnegative exchange rate; it is solved by CG preconditioned with the two
field factors (a few iterations while the exchange is weak), and c3 by one
triangular solve with its own factor, or with a field's when d3 equals d1
or d2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fem
from .geometry import EdgeMarker
from .interpolate import P1Interpolator
from .macro import PositivityPolicy, _finite, _monitor_positivity
from .trajectory import Trajectory, step_count


class Scaling(str, Enum):
    FAST_EXCHANGE = "fast_exchange"
    ALL_EPS = "all_eps"


@dataclass
class MicroState:
    t: float
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray


@dataclass
class MicroConfig:
    dt: float
    t_end: float
    d1: object
    d2: object
    d3: object
    kinetics: object
    scaling: Scaling = Scaling.FAST_EXCHANGE
    positivity: PositivityPolicy = PositivityPolicy.MONITOR
    pos_tol: float = 1e-10
    solver_tol: float = 1e-10
    snapshot_every: int = 1
    linf_bound: float | None = None


class MicroSolver:
    """Driver for the epsilon-dependent system on one perforated mesh."""

    def __init__(self, mesh, epsilon, config):
        if config.dt <= 0:
            raise ValueError("dt must be positive")
        self.mesh = mesh
        self.epsilon = float(epsilon)
        self.cfg = config
        self.M = fem.assemble_mass(mesh)
        self.mass_weights = np.asarray(self.M.sum(axis=1)).ravel()
        dirichlet = mesh.nodes_with(EdgeMarker.OUTER)
        self.reducer = fem.ConstraintReducer(
            mesh.n_nodes, fem.ConstraintSet(dirichlet_nodes=dirichlet))
        fine = [d.at_fine_scale(self.epsilon)
                for d in (config.d1, config.d2, config.d3)]
        self.K = [fem.assemble_stiffness(mesh, d) for d in fine]
        dt = config.dt
        A1, A2, A3 = ((self.M + dt * K).tocsr() for K in self.K)
        self.equal_pair = config.d1.is_equal_constant(config.d2) \
            or config.d1 is config.d2
        self.exchange = fem.ExchangeBlock(A1, A2, self.reducer,
                                          equal=self.equal_pair)
        self.A3_r, self.A3_handle = self.exchange.factor_of(
            self.reducer.restrict(A3))
        self.gamma_mass = fem.assemble_boundary_mass(mesh, EdgeMarker.GAMMA, 1.0)
        if config.scaling == Scaling.FAST_EXCHANGE:
            self.exchange_factor = dt / self.epsilon
        else:
            self.exchange_factor = dt * self.epsilon
        self._y_points = np.mod(mesh.nodes / self.epsilon, 1.0)

    def _volume_rate(self, name, rate, state):
        y = self._y_points if rate.y_dependent else None
        return _finite(name, rate(y, state.c1, state.c2, state.c3), state.t)

    def gamma_gap_norm(self, state):
        """L2 norm of c1 - c2 on the inclusion boundaries."""
        d = state.c1 - state.c2
        return float(np.sqrt(max(d @ (self.gamma_mass @ d), 0.0)))

    def step(self, state, events=None):
        cfg = self.cfg
        kin = cfg.kinetics
        dt = cfg.dt
        events = events if events is not None else []
        c1, c2, c3 = state.c1, state.c2, state.c3

        h_nodal = _finite("h(c3)", kin.h(c3), state.t)
        C = self.exchange_factor * fem.assemble_boundary_mass(
            self.mesh, EdgeMarker.GAMMA, h_nodal)

        f1 = self._volume_rate("f1", kin.f1, state)
        f2 = self._volume_rate("f2", kin.f2, state)
        b1 = self.M @ c1 + dt * (self.M @ f1)
        b2 = self.M @ c2 + dt * (self.M @ f2)
        c1_new, c2_new = fem.solve_exchange_block(
            self.exchange, C, b1, b2, tol=cfg.solver_tol, x0=(c1, c2))

        g3 = self._volume_rate("g3", kin.g3, state)
        b3 = self.M @ c3 + dt * (
            self.M @ self._volume_rate("f3", kin.f3, state)
            + self.epsilon * (self.gamma_mass @ g3))
        b3_r = self.reducer.reduce_rhs(b3)
        c3_new = self.reducer.expand(fem.solve_factored(
            self.A3_handle, self.A3_r, b3_r, cfg.solver_tol))

        fields = _monitor_positivity(cfg.positivity, cfg.pos_tol, state.t + dt,
                                     {"c1": c1_new, "c2": c2_new,
                                      "c3": c3_new}, events)
        return MicroState(state.t + dt, fields["c1"], fields["c2"],
                          fields["c3"])

    def run(self, state):
        """Step to t_end.

        Alongside the norm/bound series the trajectory records the
        boundary-gap norm of the pair (for the square-root law), per-field
        gradient energies (so the space-time H1 accumulators of the a-priori
        bounds can be formed), and optional L-infinity monitor events when
        ``linf_bound`` is configured.
        """
        cfg = self.cfg
        traj = Trajectory(("c1", "c2", "c3"))
        traj.series["gamma_gap"] = []
        for name in ("c1", "c2", "c3"):
            traj.series[f"grad_energy_{name}"] = []

        def record(st, snapshot):
            fields = {"c1": st.c1, "c2": st.c2, "c3": st.c3}
            traj.record(st.t, fields, self.M, self.mass_weights,
                        snapshot=snapshot)
            traj.series["gamma_gap"].append(self.gamma_gap_norm(st))
            for k, (name, u) in enumerate(fields.items()):
                traj.series[f"grad_energy_{name}"].append(
                    float(u @ (self.K[k] @ u)))
            if cfg.linf_bound is not None:
                for name, u in fields.items():
                    peak = float(np.abs(u).max())
                    if peak > cfg.linf_bound:
                        traj.add_event(kind="linf", field=name, t=st.t,
                                       max=peak, bound=cfg.linf_bound)

        record(state, True)
        n_steps = step_count(cfg.t_end, cfg.dt)
        for k in range(1, n_steps + 1):
            state = self.step(state, events=traj.events)
            snap = (k % cfg.snapshot_every == 0) or k == n_steps
            record(state, snap)
        traj.final = state
        return traj

    @staticmethod
    def h1_accumulator(traj, name):
        """Time integral of the squared H1 norm of one field."""
        t = np.asarray(traj.times)
        sq = (np.asarray(traj.series[f"norm_{name}"]) ** 2
              + np.asarray(traj.series[f"grad_energy_{name}"]))
        return float(np.trapezoid(sq, t))


def initial_state(mesh, init_c1, init_c2, init_c3):
    """Evaluate initial-data closures (defined on the full domain) nodally."""
    x, y = mesh.nodes.T
    return MicroState(0.0, np.asarray(init_c1(x, y), dtype=float),
                      np.asarray(init_c2(x, y), dtype=float),
                      np.asarray(init_c3(x, y), dtype=float))


def write_gamma_gap_csv(traj, path):
    lines = ["t,norm_c1_minus_c2_on_gamma"]
    for t, v in zip(traj.times, traj.series["gamma_gap"]):
        lines.append(f"{float(t)!r},{float(v)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def restrict_macro_to_micro(macro_mesh, macro_field, micro_mesh):
    """P1-interpolate a macroscopic nodal field onto perforated-mesh nodes."""
    return P1Interpolator(macro_mesh, micro_mesh.nodes)(macro_field)


def cell_average_unfold(mesh, values, epsilon):
    """Area-weighted average of a nodal field over each epsilon cell.

    Returns (cells, averages) where cells are integer lattice indices (K,2);
    the element centroid determines the cell.
    """
    values = np.asarray(values, dtype=float)
    areas = mesh.areas
    elem_mean = values[mesh.triangles].mean(axis=1)
    kx = np.floor(mesh.centroids[:, 0] / epsilon).astype(np.int64)
    ky = np.floor(mesh.centroids[:, 1] / epsilon).astype(np.int64)
    keys = kx * (2 ** 31) + ky
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq))
    wsum = np.zeros(len(uniq))
    np.add.at(sums, inv, areas * elem_mean)
    np.add.at(wsum, inv, areas)
    cells = np.column_stack([uniq // (2 ** 31), uniq % (2 ** 31)])
    return cells, sums / wsum
