"""Time stepping of the homogenized system on the macroscopic domain.

The fast pair evolves as one field c with a doubled time-derivative weight
and the concentration-dependent dispersion matrix evaluated from the table at
the element average of the slow field; the slow field c3 diffuses with the
constant effective tensor and collects the averaged volume and surface
reactions. Diffusion is implicit (theta scheme, default backward Euler),
reactions are explicit, the dispersion matrix is lagged one step. The run
loop, the c3 solve and the positivity policy are ``stepper.ImexStepper``'s.

The three-field variant limit (all boundary reactions slow) is also set up
here: its volumetric pair exchange and cell-averaged rates are the hooks of
``stepper.ExchangePairStepper``, which steps it like the epsilon-problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, kinetics as kin_mod
from .errors import TableRangeError
from .stepper import (ExchangePairStepper, ExchangeState, ImexStepper,
                      PositivityPolicy, finite)

# element averages of c3 may leave the table range by this share of it
TABLE_RANGE_TOL = 1e-6


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
    snapshot_every: int = 1
    # nothing reads it; perfbench's homogenized workload still passes it
    cell_ctx: object = None

    def validate(self):
        check_theta(self.theta)
        check_table_range(self.btable.s, self.lambda_macro)


def check_theta(theta):
    """ValueError unless the theta of the scheme lies in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")


def check_table_range(s, lambda_macro):
    """TableRangeError unless the abscissae ``s`` cover [0, lambda_macro]."""
    tol = 1e-12
    if not (s[0] - tol <= 0.0 and lambda_macro <= s[-1] + tol):
        raise TableRangeError(f"dispersion table [{s[0]}, {float(s[-1])}] "
                              f"does not cover [0, {lambda_macro}]")


def averaged_rates(kin, gamma_over_cell, s):
    """Nodal (F1, F2, F3 + (|Gamma|/|Y*|) G3) at the concentrations ``s``,
    as float arrays."""
    f1, f2, f3 = (np.asarray(kin_mod.cell_average_f(kin, i, s), dtype=float)
                  for i in (1, 2, 3))
    if gamma_over_cell > 0:
        f3 = f3 + gamma_over_cell * np.asarray(kin.g3(*s), dtype=float)
    return f1, f2, f3


class MacroSolver(ImexStepper):
    """Driver for the two-field homogenized system on one macro mesh."""

    field_names = ("c", "c3")
    state_type = MacroState

    def __init__(self, mesh, config):
        super().__init__(mesh, config)
        config.validate()
        self.geometry = fem.triangle_geometry(mesh)
        self.K3 = fem.assemble_stiffness(
            mesh, fem.CoefficientField.constant(config.d0), self.geometry)
        dt, th = config.dt, config.theta
        self.A3_r = self.reducer.restrict(self.M + th * dt * self.K3)
        self.A3_handle = fem.factorize(self.A3_r)
        # A_c = 2M + theta dt K_B(c3) is replayed every step on the mesh's
        # pattern; M has that pattern, so 2M is its data
        self.pattern = fem.AssemblyPattern(mesh.triangles, mesh.n_nodes,
                                           self.reducer)
        self.two_m = 2.0 * self.M.data
        # preconditioner of the A_c solves, factored at the first step
        self.held = fem.HeldFactor()
        self.gamma_over_cell = config.gamma_length / config.cell_area

    def dispersion_matrices(self, c3):
        """Element-wise dispersion matrices at the element average of c3."""
        s_elem = c3[self.mesh.triangles].mean(axis=1)
        table = self.cfg.btable
        span = max(table.s_max - table.s[0], 1e-300)
        tol = TABLE_RANGE_TOL * span
        if s_elem.min() < table.s[0] - tol or s_elem.max() > table.s_max + tol:
            raise TableRangeError(
                f"element averages [{s_elem.min():.4g}, {s_elem.max():.4g}] "
                f"leave the table range [{table.s[0]}, {table.s_max}]"
            )
        return table.evaluate_many(s_elem)

    def _advance(self, state):
        """c and c3 after one step.

        A_c = 2M + theta dt K_B(c3) changes every step with the lagged
        dispersion matrices, so it is solved by CG from the previous c,
        preconditioned by a HeldFactor of an earlier A_c. Its reduced
        matrix is a slice of the replayed data of A_c.
        """
        cfg = self.cfg
        dt, th = cfg.dt, cfg.theta
        c, c3 = state.c, state.c3

        mats = self.dispersion_matrices(c3)
        k_data = self.pattern.assemble(
            fem.stiffness_elements(*self.geometry, mats))

        f1, f2, f3 = averaged_rates(cfg.kinetics, self.gamma_over_cell,
                                    (c, c, c3))
        f_c = finite("f1+f2", f1 + f2, state.t)
        f_3 = finite("f3+g3", f3, state.t)
        b_c = 2.0 * (self.M @ c) + dt * (self.M @ f_c)
        if th < 1.0:
            b_c = b_c - (1.0 - th) * dt * (self.pattern.matrix(k_data) @ c)
        A_r = self.pattern.restricted(self.two_m + (th * dt) * k_data)
        b_r = self.reducer.reduce_rhs(b_c)
        x = self.held.solve(A_r, b_r, x0=self.reducer.reduce_rhs(c))

        b_3 = self.M @ c3 + dt * (self.M @ f_3)
        if th < 1.0:
            b_3 = b_3 - (1.0 - th) * dt * (self.K3 @ c3)
        return {"c": self.reducer.expand(x), "c3": self.solve_c3(b_3)}


# ---------------------------------------------------------------------------
# three-field variant limit (all boundary reactions slow)
# ---------------------------------------------------------------------------

VariantState = ExchangeState


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
    snapshot_every: int = 1


class MacroVariantSolver(ExchangePairStepper):
    """Three decoupled effective diffusions plus a volumetric pair exchange."""

    def __init__(self, mesh, config):
        super().__init__(
            mesh, config,
            [fem.CoefficientField.constant(d)
             for d in (config.d1, config.d2, config.d3)])
        self.gamma_over_cell = config.gamma_length / config.cell_area
        # W(h(c3)) is replayed every step on the mesh's pattern
        self.pattern = fem.AssemblyPattern(mesh.triangles, mesh.n_nodes,
                                           self.reducer)

    def exchange_matrix(self, h_nodal):
        """dt |Gamma|/|Y| times the volume mass weighted by h(c3)."""
        local = fem.weighted_mass_elements(self.mesh, h_nodal)
        scale = self.cfg.dt * self.gamma_over_cell
        return self.pattern.restricted(scale * self.pattern.assemble(local))

    def rates(self, state):
        rates = averaged_rates(self.cfg.kinetics, self.gamma_over_cell,
                               (state.c1, state.c2, state.c3))
        f1, f2, f3 = (finite(f"f{k}", f, state.t)
                      for k, f in enumerate(rates, 1))
        return f1, f2, self.M @ f3
