"""The time stepper shared by the micro, macro and variant solvers."""

import dataclasses

import numpy as np
import pytest

from porodiff import cell, fem, geometry as geo, kinetics as kin, macro, micro

DT = 1e-3
SOLVERS = ("micro", "macro", "variant")


@pytest.fixture(scope="module")
def eps_mesh(disc_spec):
    spec = geo.EpsilonDomainSpec(geo.RectUnion.unit_square(), 0.25, disc_spec)
    return geo.build_epsilon_mesh(spec, 0.25 / 8)


def solver_and_state(kind, eps_mesh, macro_mesh, **cfg):
    """A solver of ``kind`` on sine-mode data, with ``cfg`` overriding."""
    k = kin.parse_kinetics("mm_triple+langmuir:a=1,b=1")
    cfg = {"dt": DT, "t_end": 10 * DT, **cfg}
    mesh = eps_mesh if kind == "micro" else macro_mesh
    x, y = mesh.nodes.T
    mode = np.sin(np.pi * x) * np.sin(np.pi * y)
    if kind == "micro":
        unit = fem.CoefficientField.isotropic(1.0)
        config = micro.MicroConfig(
            kinetics=k, **{"d1": unit, "d2": unit, "d3": unit, **cfg})
        return (micro.MicroSolver(mesh, 0.25, config),
                micro.MicroState(0.0, mode, 2 * mode, mode))
    if kind == "macro":
        config = macro.MacroConfig(
            btable=cell.DispersionTable.constant(np.eye(2), s_max=1.0),
            kinetics=k, gamma_length=0.0, cell_area=1.0,
            **{"d0": np.eye(2), **cfg})
        return (macro.MacroSolver(mesh, config),
                macro.MacroState(0.0, mode, mode))
    config = macro.VariantConfig(
        kinetics=k, gamma_length=1.0, cell_area=1.0,
        **{"d1": np.eye(2), "d2": np.eye(2), "d3": np.eye(2), **cfg})
    return (macro.MacroVariantSolver(mesh, config),
            macro.VariantState(0.0, mode, 2 * mode, mode))


@pytest.mark.parametrize("kind", SOLVERS)
@pytest.mark.parametrize("bad", [{"dt": 0.0}, {"dt": -DT},
                                 {"snapshot_every": 0},
                                 {"snapshot_every": -1}])
def test_bad_time_grid_rejected_at_construction(kind, bad, eps_mesh,
                                                macro_mesh_16):
    with pytest.raises(ValueError):
        solver_and_state(kind, eps_mesh, macro_mesh_16, **bad)


@pytest.mark.parametrize("kind", SOLVERS)
def test_snapshot_cadence(kind, eps_mesh, macro_mesh_16):
    solver, state = solver_and_state(kind, eps_mesh, macro_mesh_16,
                                     snapshot_every=3)
    traj = solver.run(state)
    assert len(traj.times) == 11
    steps = [round(t / DT) for t, _ in traj.snapshots]
    assert steps == [0, 3, 6, 9, 10]
    t_last, fields = traj.snapshots[-1]
    assert traj.final.t == t_last == traj.times[-1]
    assert list(fields) == list(traj.field_names)
    for name, u in fields.items():
        assert np.array_equal(getattr(traj.final, name), u)


@pytest.mark.parametrize("kind", SOLVERS)
def test_set_up_computes_the_element_geometry_once(kind, eps_mesh,
                                                   macro_mesh_16, monkeypatch,
                                                   gradient_computations,
                                                   same_csr):
    # distinct d1, d2, d3 give three stiffness matrices (the macro solver
    # one, for d0); all come from one computation of Mesh.gradients (the
    # micro solver's on its unit cell, never on the epsilon-mesh) and are
    # bitwise those of a separate assembly
    mats = [k * np.eye(2) for k in (1.0, 2.0, 3.0)]
    fields = [fem.CoefficientField.constant(m) for m in mats]
    coefficients = {"micro": dict(zip(("d1", "d2", "d3"), fields)),
                    "macro": {"d0": mats[2]},
                    "variant": dict(zip(("d1", "d2", "d3"), mats))}[kind]
    # fresh meshes, whose gradients no earlier test has cached
    eps_mesh = dataclasses.replace(eps_mesh,
                                   unit=dataclasses.replace(eps_mesh.unit))
    solver, _ = solver_and_state(kind, eps_mesh,
                                 dataclasses.replace(macro_mesh_16),
                                 **coefficients)
    monkeypatch.undo()
    assert len(gradient_computations) == 1
    assert gradient_computations[0] is (
        solver.mesh.unit if kind == "micro" else solver.mesh)
    assert "gradients" not in vars(eps_mesh)
    if kind == "macro":
        built, fields = [solver.K3], fields[2:]
    else:
        built = solver.K
    assert len(built) == len(fields)
    for K, field in zip(built, fields):
        assert same_csr(K, fem.assemble_stiffness(solver.mesh, field))


def test_state_types_are_shared():
    assert micro.MicroState is macro.VariantState
