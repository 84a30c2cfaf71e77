from functools import cached_property

import numpy as np
import pytest

from porodiff import cell, fem, geometry as geo


@pytest.fixture(scope="session")
def disc_spec():
    return geo.InclusionSpec.disc((0.5, 0.5), 0.25)


@pytest.fixture(scope="session")
def cell_mesh(disc_spec):
    return geo.build_unit_cell_mesh(disc_spec, 0.05)


@pytest.fixture(scope="session")
def cell_ctx(cell_mesh):
    return cell.CellContext.from_mesh(cell_mesh)


@pytest.fixture(scope="session")
def coarse_ctx(disc_spec):
    return cell.CellContext.from_mesh(geo.build_unit_cell_mesh(disc_spec, 1 / 8))


@pytest.fixture(scope="session")
def identity_field():
    return fem.CoefficientField.isotropic(1.0)


@pytest.fixture(scope="session")
def aniso_field():
    return fem.CoefficientField.constant(np.diag([2.0, 1.0]))


@pytest.fixture(scope="session")
def macro_mesh_16():
    return geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 16)


@pytest.fixture
def factorize_calls(monkeypatch):
    """Shapes of the matrices passed to fem.factorize while the test runs."""
    calls = []
    factorize = fem.factorize

    def count(A):
        calls.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(fem, "factorize", count)
    return calls


@pytest.fixture
def lattice_factors(monkeypatch):
    """The plan of each LatticeFactor made while the test runs."""
    plans = []
    factorize = fem.LatticePlan.factorize

    def count(plan, *args):
        plans.append(plan)
        return factorize(plan, *args)

    monkeypatch.setattr(fem.LatticePlan, "factorize", count)
    return plans


@pytest.fixture
def gradient_computations(monkeypatch):
    """The meshes whose Mesh.gradients are computed while the test runs."""
    meshes = []
    gradients = geo.Mesh.gradients.func

    def count(mesh):
        meshes.append(mesh)
        return gradients(mesh)

    counted = cached_property(count)
    counted.__set_name__(geo.Mesh, "gradients")
    monkeypatch.setattr(geo.Mesh, "gradients", counted)
    return meshes


@pytest.fixture(scope="session")
def same_csr():
    """True when two CSR matrices have equal indptr, indices and data."""
    def same(A, B):
        return A.shape == B.shape and all(
            np.array_equal(getattr(A, part), getattr(B, part))
            for part in ("indptr", "indices", "data"))

    return same
