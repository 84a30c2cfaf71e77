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
solve with its own factor, or with a field's when d3 equals d1 or d2. The
factors are lattice factors (``fem.LatticePlan``), built from the unit
cell's operators and sharing one plan. The step itself is
``stepper.ExchangePairStepper``'s, whose mass and stiffness on the
EpsilonMesh are its unit cell's, tiled; this module supplies the Gamma
exchange matrix and the nodal reaction rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fem
from .geometry import EdgeMarker
from .interpolate import P1Interpolator
from .stepper import (ExchangePairStepper, ExchangeState, PositivityPolicy,
                      finite)

MicroState = ExchangeState


class Scaling(str, Enum):
    FAST_EXCHANGE = "fast_exchange"
    ALL_EPS = "all_eps"


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
    snapshot_every: int = 1


class MicroSolver(ExchangePairStepper):
    """Driver for the epsilon-dependent system on one perforated mesh."""

    def __init__(self, mesh, epsilon, config):
        self.epsilon = float(epsilon)
        super().__init__(mesh, config, (config.d1, config.d2, config.d3))
        self.gamma_mass = fem.assemble_boundary_mass(mesh, EdgeMarker.GAMMA, 1.0)
        # the Gamma mass of h(c3) is replayed every step on its pattern
        self._gamma_edges = fem.marked_edges(mesh, EdgeMarker.GAMMA)
        self._gamma_pattern = fem.AssemblyPattern(
            self._gamma_edges[0], mesh.n_nodes, self.reducer)
        if config.scaling == Scaling.FAST_EXCHANGE:
            self.exchange_factor = config.dt / self.epsilon
        else:
            self.exchange_factor = config.dt * self.epsilon

    def _volume_rate(self, name, rate, state):
        return finite(name, rate(state.c1, state.c2, state.c3), state.t)

    def gamma_gap_norm(self, state):
        """L2 norm of c1 - c2 on the inclusion boundaries."""
        return fem.mass_norm(self.gamma_mass, state.c1 - state.c2)

    def exchange_matrix(self, h_nodal):
        """(dt/eps or dt eps) times the Gamma boundary mass of h(c3)."""
        local = fem.boundary_mass_elements(self.mesh, *self._gamma_edges,
                                           h_nodal)
        return self._gamma_pattern.restricted(
            self.exchange_factor * self._gamma_pattern.assemble(local))

    def rates(self, state):
        kin = self.cfg.kinetics
        f1 = self._volume_rate("f1", kin.f1, state)
        f2 = self._volume_rate("f2", kin.f2, state)
        g3 = self._volume_rate("g3", kin.g3, state)
        load3 = (self.M @ self._volume_rate("f3", kin.f3, state)
                 + self.epsilon * (self.gamma_mass @ g3))
        return f1, f2, load3

    def record(self, traj, state, snapshot):
        """Record the norms and bounds, then the micro series.

        The series are the boundary-gap norm of the pair (for the square-root
        law) and per-field gradient energies (so the space-time H1
        accumulators of the a-priori bounds can be formed).
        """
        super().record(traj, state, snapshot)
        traj.series.setdefault("gamma_gap", []).append(
            self.gamma_gap_norm(state))
        for K, (name, u) in zip(self.K, self.fields_of(state).items()):
            traj.series.setdefault(f"grad_energy_{name}", []).append(
                float(u @ (K @ u)))

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
