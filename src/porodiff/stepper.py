"""The IMEX time stepper shared by the micro, macro and variant solvers.

In all three, diffusion is implicit, reactions are explicit and the slow
field c3 takes one solve with a factor held for the whole run; only the
operators and the rate evaluators differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fem
from .errors import NonFiniteValueError, PositivityViolationError
from .geometry import EdgeMarker, EpsilonMesh
from .trajectory import Trajectory, step_count

# a field below -POS_TOL breaks positivity
POS_TOL = 1e-10


class PositivityPolicy(str, Enum):
    MONITOR = "monitor"
    REJECT = "reject"
    CLAMP = "clamp"


def finite(name, values, t):
    """``values`` as a float array; NonFiniteValueError if any is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError(
            f"{name} has a non-finite value at t={t:.6g}")
    return values


def monitor_positivity(policy, t, fields, events):
    """Apply ``policy`` to every field below -POS_TOL; returns the fields.

    MONITOR and CLAMP append an event, CLAMP also cuts the field at zero,
    REJECT raises PositivityViolationError.
    """
    out = {}
    for name, u in fields.items():
        lo = float(u.min())
        if lo < -POS_TOL:
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


@dataclass
class ExchangeState:
    """State of a three-field system: the exchange pair (c1, c2) and c3."""

    t: float
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray


class ImexStepper:
    """Implicit diffusion, explicit reactions, on one mesh.

    Owns the mass matrix, the OUTER Dirichlet reduction, the c3 solve, the
    positivity policy and the run loop. ``config`` carries ``dt``,
    ``t_end``, ``snapshot_every`` and ``positivity``; every solve meets the
    residual contract ``fem.RESIDUAL_TOL``. A
    subclass names its fields in ``field_names`` (the attributes of its
    ``state_type``), sets the reduced c3 operator ``A3_r`` and its factor
    ``A3_handle``, and implements ``_advance(state)``: the new fields, by
    name, before the positivity policy.
    """

    field_names = ("c1", "c2", "c3")
    state_type = ExchangeState

    def __init__(self, mesh, config):
        if not config.dt > 0:
            raise ValueError(f"dt must be positive, got {config.dt!r}")
        if config.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be at least 1, "
                f"got {config.snapshot_every!r}")
        self.mesh = mesh
        self.cfg = config
        self.M = fem.assemble_mass(mesh)
        self.mass_weights = np.asarray(self.M.sum(axis=1)).ravel()
        self.reducer = fem.DirichletReducer(
            mesh.n_nodes, mesh.nodes_with(EdgeMarker.OUTER))

    def solve_c3(self, b3):
        """c3 from its right-hand side, under the residual contract."""
        return self.reducer.expand(fem.solve_factored(
            self.A3_handle, self.A3_r, self.reducer.reduce_rhs(b3)))

    def step(self, state, events=None):
        """One IMEX step; returns the new state.

        Positivity events are appended to ``events``.
        """
        t = state.t + self.cfg.dt
        fields = monitor_positivity(
            self.cfg.positivity, t, self._advance(state),
            events if events is not None else [])
        return self.state_type(t, **fields)

    def fields_of(self, state):
        return {name: getattr(state, name) for name in self.field_names}

    def record(self, traj, state, snapshot):
        """Append one time level of ``state`` to the trajectory."""
        traj.record(state.t, self.fields_of(state), self.M, self.mass_weights,
                    snapshot=snapshot)

    def run(self, state):
        """Step to t_end; returns the trajectory.

        Every step is recorded; a snapshot is kept at the start, every
        ``snapshot_every`` steps and at the last step.
        """
        cfg = self.cfg
        traj = Trajectory(self.field_names)
        self.record(traj, state, True)
        n_steps = step_count(cfg.t_end, cfg.dt)
        for k in range(1, n_steps + 1):
            state = self.step(state, events=traj.events)
            self.record(traj, state,
                        k % cfg.snapshot_every == 0 or k == n_steps)
        traj.final = state
        return traj


class ExchangePairStepper(ImexStepper):
    """The (c1, c2) pair through the implicit exchange block, then c3.

    ``coefficients`` are d1, d2, d3. Their stiffness matrices are
    assembled once, from the mesh's areas and gradients (an EpsilonMesh's
    unit cell's, whose stiffness is tiled), and kept in ``K``, and
    a coefficient that is the same operator as an earlier one
    (``CoefficientField.same_operator``) shares its K, reduced operator and
    factor: for d2 the pair is equal and the block decouples, for d3 the c3
    solve uses that field's factor. The block [[A1+C, -C], [-C, A2+C]] with
    A_k = M + dt K_k is built from their reduced P'A_kP. On an EpsilonMesh
    each distinct A_k is factored once on the mesh's ``fem.LatticePlan``,
    which is ``lattice``; on another mesh by ``fem.factorize``. A subclass
    implements two hooks called every step:
    ``exchange_matrix(h_nodal)``, the exchange matrix C from nodal h(c3),
    restricted to the reduced dofs, and ``rates(state)``, the explicit
    (f1, f2, load3): nodal pair rates and the assembled c3 load.
    """

    def __init__(self, mesh, config, coefficients):
        super().__init__(mesh, config)
        owner = [next(j for j in range(k + 1)
                      if coefficients[j].same_operator(coefficients[k]))
                 for k in range(3)]
        K = {j: fem.assemble_stiffness(mesh, coefficients[j])
             for j in dict.fromkeys(owner)}
        self.K = [K[j] for j in owner]
        # each full M + dt K is freed once restricted, before any factoring
        A_r = {j: self.reducer.restrict(self.M + config.dt * K[j]) for j in K}
        if isinstance(mesh, EpsilonMesh):
            # the factors of an EpsilonMesh's operators share one plan
            self.lattice = fem.LatticePlan(mesh, self.reducer)
            factors = {j: self.lattice.factorize(config.dt, coefficients[j])
                       for j in K}
        else:
            factors = {j: fem.factorize(A_r[j]) for j in K}
        self.exchange = fem.ExchangeBlock(
            A_r[0], A_r[owner[1]], self.reducer,
            (factors[0], factors[owner[1]]))
        self.A3_r = A_r[owner[2]]
        self.A3_handle = factors[owner[2]]

    def _advance(self, state):
        cfg = self.cfg
        dt = cfg.dt
        M = self.M
        Cr = self.exchange_matrix(
            finite("h(c3)", cfg.kinetics.h(state.c3), state.t))
        f1, f2, load3 = self.rates(state)
        c1, c2 = fem.solve_exchange_block(
            self.exchange, Cr, M @ state.c1 + dt * (M @ f1),
            M @ state.c2 + dt * (M @ f2), x0=(state.c1, state.c2))
        return {"c1": c1, "c2": c2,
                "c3": self.solve_c3(M @ state.c3 + dt * load3)}
