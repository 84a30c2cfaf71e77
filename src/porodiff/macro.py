"""Time stepping of the homogenized system on the macroscopic domain.

The fast pair evolves as one field c with a doubled time-derivative weight
and the concentration-dependent dispersion matrix evaluated from the table at
the element average of the slow field; the slow field c3 diffuses with the
constant effective tensor and collects the averaged volume and surface
reactions. Diffusion is implicit (theta scheme, default backward Euler),
reactions are explicit, the dispersion matrix is lagged one step.

The three-field variant limit (all boundary reactions slow) is also stepped
here, with the pair exchange treated implicitly through a symmetric block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse.linalg as spla

from . import fem, kinetics as kin_mod
from .errors import (NonFiniteValueError, PositivityViolationError,
                     TableRangeError)
from .geometry import EdgeMarker
from .trajectory import Trajectory, step_count


class PositivityPolicy(str, Enum):
    MONITOR = "monitor"
    REJECT = "reject"
    CLAMP = "clamp"


@dataclass
class MacroState:
    t: float
    c: np.ndarray
    c3: np.ndarray


@dataclass
class MacroConfig:
    dt: float
    t_end: float
    d0: np.ndarray
    btable: object
    kinetics: object
    gamma_length: float
    cell_area: float
    theta: float = 1.0
    lambda_macro: float = 1.0
    positivity: PositivityPolicy = PositivityPolicy.MONITOR
    pos_tol: float = 1e-10
    solver_tol: float = 1e-10
    snapshot_every: int = 1
    table_range_tol: float = 1e-6
    cell_ctx: object = None
    source_vec_c: np.ndarray | None = None
    source_vec_c3: np.ndarray | None = None
    linf_bound: float | None = None

    def validate(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not self.btable.covers(0.0, self.lambda_macro, tol=1e-12):
            raise TableRangeError(
                f"dispersion table [{self.btable.s[0]}, {self.btable.s_max}] "
                f"does not cover [0, {self.lambda_macro}]"
            )


def _monitor_positivity(policy, pos_tol, t, fields, events):
    out = {}
    for name, u in fields.items():
        lo = float(u.min())
        if lo < -pos_tol:
            if policy == PositivityPolicy.REJECT:
                raise PositivityViolationError(
                    f"{name} reached {lo:.3e} at t={t:.6g}"
                )
            events.append({"kind": "positivity", "field": name,
                           "t": t, "min": lo,
                           "clamped": policy == PositivityPolicy.CLAMP})
            if policy == PositivityPolicy.CLAMP:
                u = np.maximum(u, 0.0)
        out[name] = u
    return out


def _finite(name, values, t):
    """``values`` as a float array; NonFiniteValueError if any is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError(
            f"{name} has a non-finite value at t={t:.6g}")
    return values


def _averaged_pair_rate(kin, ctx):
    """Nodal evaluator of avg(F1)+avg(F2) at arguments (c, c, c3)."""

    def evaluate(c, c3):
        return (np.asarray(kin_mod.cell_average_f(kin, 1, (c, c, c3), ctx))
                + np.asarray(kin_mod.cell_average_f(kin, 2, (c, c, c3), ctx)))

    return evaluate


def _averaged_slow_rate(kin, ctx, gamma_over_cell):
    """Nodal evaluator of avg(F3) + (|Gamma|/|Y*|) avg_boundary(G3)."""

    def evaluate(c, c3):
        out = np.asarray(kin_mod.cell_average_f(kin, 3, (c, c, c3), ctx),
                         dtype=float)
        if gamma_over_cell > 0:
            out = out + gamma_over_cell * np.asarray(
                kin_mod.surface_average_g3(kin, (c, c, c3), ctx))
        return out

    return evaluate


class MacroSolver:
    """Driver for the two-field homogenized system on one macro mesh."""

    def __init__(self, mesh, config):
        config.validate()
        self.mesh = mesh
        self.cfg = config
        self.M = fem.assemble_mass(mesh)
        self.mass_weights = np.asarray(self.M.sum(axis=1)).ravel()
        dirichlet = mesh.nodes_with(EdgeMarker.OUTER)
        self.reducer = fem.ConstraintReducer(
            mesh.n_nodes, fem.ConstraintSet(dirichlet_nodes=dirichlet))
        self.K3 = fem.assemble_stiffness(
            mesh, fem.CoefficientField.constant(config.d0))
        dt, th = config.dt, config.theta
        self.A3_r = self.reducer.restrict(self.M + th * dt * self.K3)
        self.A3_handle = fem.factorize(self.A3_r)
        # preconditioner of the A_c solves, factored at the first step
        self.held = None
        gamma_over_cell = config.gamma_length / config.cell_area
        self.rate_pair = _averaged_pair_rate(config.kinetics, config.cell_ctx)
        self.rate_slow = _averaged_slow_rate(config.kinetics, config.cell_ctx,
                                             gamma_over_cell)

    def dispersion_matrices(self, c3):
        """Element-wise dispersion matrices at the element average of c3."""
        s_elem = c3[self.mesh.triangles].mean(axis=1)
        table = self.cfg.btable
        span = max(table.s_max - table.s[0], 1e-300)
        tol = self.cfg.table_range_tol * span
        if s_elem.min() < table.s[0] - tol or s_elem.max() > table.s_max + tol:
            raise TableRangeError(
                f"element averages [{s_elem.min():.4g}, {s_elem.max():.4g}] "
                f"leave the table range [{table.s[0]}, {table.s_max}]"
            )
        return table.evaluate_many(s_elem)

    def step(self, state, events=None):
        """One IMEX step; returns the new state.

        A_c = 2M + theta dt K_B(c3) changes every step with the lagged
        dispersion matrices, so it is solved by CG from the previous c,
        preconditioned by a HeldFactor of an earlier A_c.
        """
        cfg = self.cfg
        dt, th = cfg.dt, cfg.theta
        events = events if events is not None else []
        c, c3 = state.c, state.c3

        mats = self.dispersion_matrices(c3)
        K_B = fem.assemble_stiffness_elementwise(self.mesh, mats)

        f_c = _finite("f1+f2", self.rate_pair(c, c3), state.t)
        b_c = 2.0 * (self.M @ c) + dt * (self.M @ f_c)
        if cfg.source_vec_c is not None:
            b_c = b_c + dt * cfg.source_vec_c
        if th < 1.0:
            b_c = b_c - (1.0 - th) * dt * (K_B @ c)
        A_c = (2.0 * self.M + th * dt * K_B).tocsr()
        A_r, b_r = self.reducer.reduce(A_c, b_c)
        if self.held is None:
            self.held = fem.HeldFactor(fem.factorize(A_r))
        x, iters = fem.pcg(
            A_r, b_r, spla.LinearOperator(A_r.shape, dtype=float,
                                          matvec=self.held.handle.solve),
            cfg.solver_tol, x0=self.reducer.P.T @ c)
        self.held.refresh(iters, lambda: A_r)
        c_new = self.reducer.expand(x)

        f_3 = _finite("f3+g3", self.rate_slow(c, c3), state.t)
        b_3 = self.M @ c3 + dt * (self.M @ f_3)
        if cfg.source_vec_c3 is not None:
            b_3 = b_3 + dt * cfg.source_vec_c3
        if th < 1.0:
            b_3 = b_3 - (1.0 - th) * dt * (self.K3 @ c3)
        b3_r = self.reducer.reduce_rhs(b_3)
        c3_new = self.reducer.expand(fem.solve_factored(
            self.A3_handle, self.A3_r, b3_r, cfg.solver_tol))

        fields = _monitor_positivity(cfg.positivity, cfg.pos_tol,
                                     state.t + dt,
                                     {"c": c_new, "c3": c3_new}, events)
        return MacroState(state.t + dt, fields["c"], fields["c3"])

    def run(self, state, until_steady=False, steady_tol=1e-9, max_steps=None):
        """Step to t_end (or steady state); returns the trajectory."""
        cfg = self.cfg

        def monitor(st, traj):
            if cfg.linf_bound is None:
                return
            for name, u in (("c", st.c), ("c3", st.c3)):
                peak = float(np.abs(u).max())
                if peak > cfg.linf_bound:
                    traj.add_event(kind="linf", field=name, t=st.t,
                                   max=peak, bound=cfg.linf_bound)

        traj = Trajectory(("c", "c3"))
        traj.record(state.t, {"c": state.c, "c3": state.c3},
                    self.M, self.mass_weights, snapshot=True)
        monitor(state, traj)
        n_steps = max_steps or step_count(cfg.t_end, cfg.dt)
        for k in range(1, n_steps + 1):
            prev = state
            state = self.step(state, events=traj.events)
            snap = (k % cfg.snapshot_every == 0) or k == n_steps
            traj.record(state.t, {"c": state.c, "c3": state.c3},
                        self.M, self.mass_weights, snapshot=snap)
            monitor(state, traj)
            if until_steady:
                rate = max(np.abs(state.c - prev.c).max(),
                           np.abs(state.c3 - prev.c3).max()) / cfg.dt
                if rate < steady_tol:
                    break
        traj.final = state
        return traj


# ---------------------------------------------------------------------------
# three-field variant limit (all boundary reactions slow)
# ---------------------------------------------------------------------------

@dataclass
class VariantState:
    t: float
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray


@dataclass
class VariantConfig:
    dt: float
    t_end: float
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    kinetics: object
    gamma_length: float
    cell_area: float
    positivity: PositivityPolicy = PositivityPolicy.MONITOR
    pos_tol: float = 1e-10
    solver_tol: float = 1e-10
    snapshot_every: int = 1
    cell_ctx: object = None


class MacroVariantSolver:
    """Three decoupled effective diffusions plus a volumetric pair exchange."""

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.cfg = config
        self.M = fem.assemble_mass(mesh)
        self.mass_weights = np.asarray(self.M.sum(axis=1)).ravel()
        dirichlet = mesh.nodes_with(EdgeMarker.OUTER)
        self.reducer = fem.ConstraintReducer(
            mesh.n_nodes, fem.ConstraintSet(dirichlet_nodes=dirichlet))
        dt = config.dt
        A1, A2, A3 = (
            (self.M + dt * fem.assemble_stiffness(
                mesh, fem.CoefficientField.constant(d))).tocsr()
            for d in (config.d1, config.d2, config.d3))
        self.equal_pair = bool(np.array_equal(np.asarray(config.d1, float),
                                              np.asarray(config.d2, float)))
        self.exchange = fem.ExchangeBlock(A1, A2, self.reducer,
                                          equal=self.equal_pair)
        self.A3_r, self.A3_handle = self.exchange.factor_of(
            self.reducer.restrict(A3))
        self.gamma_over_cell = config.gamma_length / config.cell_area

    def step(self, state, events=None):
        cfg = self.cfg
        kin = cfg.kinetics
        ctx = cfg.cell_ctx
        dt = cfg.dt
        events = events if events is not None else []
        c1, c2, c3 = state.c1, state.c2, state.c3

        t = state.t
        h_nodal = _finite("h(c3)", kin.h(c3), t)
        W = fem.assemble_weighted_mass(self.mesh, h_nodal)
        C = (dt * self.gamma_over_cell) * W

        args = (c1, c2, c3)
        f1, f2, f3 = (
            _finite(f"f{k}", kin_mod.cell_average_f(kin, k, args, ctx), t)
            for k in (1, 2, 3))
        b1 = self.M @ c1 + dt * (self.M @ f1)
        b2 = self.M @ c2 + dt * (self.M @ f2)
        c1_new, c2_new = fem.solve_exchange_block(
            self.exchange, C, b1, b2, tol=cfg.solver_tol)

        if self.gamma_over_cell > 0:
            f3 = f3 + self.gamma_over_cell * _finite(
                "g3", kin_mod.surface_average_g3(kin, args, ctx), t)
        b3 = self.M @ c3 + dt * (self.M @ f3)
        b3_r = self.reducer.reduce_rhs(b3)
        c3_new = self.reducer.expand(fem.solve_factored(
            self.A3_handle, self.A3_r, b3_r, cfg.solver_tol))

        fields = _monitor_positivity(cfg.positivity, cfg.pos_tol, state.t + dt,
                                     {"c1": c1_new, "c2": c2_new,
                                      "c3": c3_new}, events)
        return VariantState(state.t + dt, fields["c1"], fields["c2"],
                            fields["c3"])

    def run(self, state):
        cfg = self.cfg
        traj = Trajectory(("c1", "c2", "c3"))
        fields = {"c1": state.c1, "c2": state.c2, "c3": state.c3}
        traj.record(state.t, fields, self.M, self.mass_weights, snapshot=True)
        n_steps = step_count(cfg.t_end, cfg.dt)
        for k in range(1, n_steps + 1):
            state = self.step(state, events=traj.events)
            snap = (k % cfg.snapshot_every == 0) or k == n_steps
            traj.record(state.t,
                        {"c1": state.c1, "c2": state.c2, "c3": state.c3},
                        self.M, self.mass_weights, snapshot=snap)
        traj.final = state
        return traj


# ---------------------------------------------------------------------------
# manufactured-solution sanity
# ---------------------------------------------------------------------------

def steady_sanity(mesh, d0, btable, case="slow_sine", dt=0.01,
                  solver_tol=1e-10, steady_tol=1e-10, max_steps=20000):
    """Drive manufactured steady states and report recovery errors.

    ``zero``: zero source must stay identically zero. ``slow_sine``: the slow
    field recovers a product-of-sines steady state against its analytic
    source. ``coupled``: both fields recover nodal targets whose sources come
    from the discrete operators themselves, so the steady residual is bounded
    by the solver tolerance.
    """
    from . import kinetics as kin_mod_local

    nodes = mesh.nodes
    sin = np.sin
    pi = np.pi
    target_c3 = sin(pi * nodes[:, 0]) * sin(pi * nodes[:, 1])
    M = fem.assemble_mass(mesh)
    zero_kin = kin_mod_local.zero_kinetics()

    def fresh_cfg(**kw):
        cfg = MacroConfig(dt=dt, t_end=dt * max_steps, d0=d0, btable=btable,
                          kinetics=zero_kin, gamma_length=0.0, cell_area=1.0,
                          solver_tol=solver_tol, snapshot_every=max_steps,
                          **kw)
        return cfg

    report = {"case": case}
    if case == "zero":
        cfg = fresh_cfg()
        solver = MacroSolver(mesh, cfg)
        state = MacroState(0.0, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        traj = solver.run(state, until_steady=True, steady_tol=steady_tol)
        report["final_max"] = float(max(np.abs(traj.final.c).max(),
                                        np.abs(traj.final.c3).max()))
        return report
    if case == "slow_sine":
        d0 = np.asarray(d0, dtype=float)
        lap = d0[0, 0] + d0[1, 1]
        source = lap * pi ** 2 * target_c3
        cfg = fresh_cfg(source_vec_c3=M @ source)
        solver = MacroSolver(mesh, cfg)
        state = MacroState(0.0, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        traj = solver.run(state, until_steady=True, steady_tol=steady_tol)
        err = traj.final.c3 - target_c3
        report["l2_error"] = fem.mass_norm(M, err)
        report["steps"] = len(traj.times) - 1
        return report
    if case == "coupled":
        target_c = 0.5 * target_c3
        cfg0 = fresh_cfg()
        solver = MacroSolver(mesh, cfg0)
        mats = solver.dispersion_matrices(target_c3)
        K_B = fem.assemble_stiffness_elementwise(mesh, mats)
        K3 = solver.K3
        cfg = fresh_cfg(source_vec_c=K_B @ target_c,
                        source_vec_c3=K3 @ target_c3)
        solver = MacroSolver(mesh, cfg)
        state = MacroState(0.0, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        traj = solver.run(state, until_steady=True, steady_tol=steady_tol)
        mats_f = solver.dispersion_matrices(traj.final.c3)
        K_Bf = fem.assemble_stiffness_elementwise(mesh, mats_f)
        free = ~solver.reducer.dirichlet_mask
        res_c = (K_Bf @ traj.final.c - cfg.source_vec_c)[free]
        res_c3 = (K3 @ traj.final.c3 - cfg.source_vec_c3)[free]
        scale = max(np.linalg.norm(cfg.source_vec_c), 1e-300)
        report["steady_residual"] = float(
            max(np.linalg.norm(res_c), np.linalg.norm(res_c3)) / scale)
        report["l2_error_c"] = fem.mass_norm(M, traj.final.c - target_c)
        report["l2_error_c3"] = fem.mass_norm(M, traj.final.c3 - target_c3)
        return report
    raise ValueError(f"unknown steady_sanity case {case!r}")
