import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from porodiff import cell, cli, convergence as conv, fem, geometry as geo
from porodiff import kinetics as kin, micro
from porodiff.errors import DegenerateDataError, ResourceLimitError
from porodiff.interpolate import P1Interpolator


def bump(x, y):
    return 16.0 * x * (1 - x) * y * (1 - y)


class TestFitRate:
    def test_exact_first_order(self):
        slope, residual = conv.fit_rate([1, 0.5, 0.25], [1, 0.5, 0.25])
        assert abs(slope - 1.0) < 1e-12
        assert residual < 1e-12

    def test_exact_half_order(self):
        slope, _ = conv.fit_rate([1, 2 ** -0.5, 0.5], [1, 0.5, 0.25])
        assert abs(slope - 0.5) < 1e-12

    def test_flat(self):
        slope, _ = conv.fit_rate([1.0, 1.0, 1.0], [1, 0.5, 0.25])
        assert abs(slope) < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            conv.fit_rate([1.0, 0.5], [1.0, 0.5])
        with pytest.raises(DegenerateDataError):
            conv.fit_rate([1.0, 0.0, 0.1], [1, 0.5, 0.25])


class TestTensorSuite:
    def test_default_suite_passes(self):
        report = conv.tensor_suite(h=0.05)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert report["passed"], failed

    def test_no_inclusion_mean_identity(self):
        report = conv.tensor_suite(inclusion=geo.InclusionSpec.none(), h=0.1)
        assert report["passed"]
        scalar = [c for c in report["checks"]
                  if c["name"] == "scalar_upper_bound"][0]
        # with no inclusion the corrector vanishes: bound is an identity
        assert abs(scalar["value"]) < 1e-12

    def test_broken_sign_detected(self, cell_ctx, identity_field, aniso_field):
        # flip the sign of the boundary coupling in the weak form; the two
        # tensor formulas then disagree far beyond the equivalence tolerance
        ctx = cell_ctx
        mesh = ctx.mesh
        n = mesh.n_nodes
        hv = 1.0
        K1 = fem.assemble_stiffness(mesh, identity_field)
        K2 = fem.assemble_stiffness(mesh, aniso_field)
        C = hv * ctx.gamma_mass
        broken = sp.bmat([[K1 - C, C], [C, K2 - C]], format="csr")
        loads1, loads2 = (
            cell._direction_loads(mesh,
                                  np.asarray(c.matrix_at(mesh.centroids)))
            for c in (identity_field, aniso_field))
        reducer = fem.ConstraintReducer(
            cell._block_periodic(ctx.periodic, n),
            np.concatenate([ctx.mean_weights, np.zeros(n)]))
        first, second = {}, {}
        for j in range(2):
            b = np.concatenate([loads1[j], loads2[j]])
            A_r, b_r = reducer.reduce(broken, b)
            x = reducer.expand(fem.solve_sparse(A_r, b_r))
            first[j], second[j] = x[:n], x[n:]
        sol = cell.CoupledCellSolution(mesh, first, second, hv)
        energy, volume = cell.CoupledCellProblem(
            ctx, identity_field, aniso_field).tensors(sol)
        assert np.abs(energy - volume).max() > 1e-6


class TestSweep:
    def make_problem(self, **kw):
        defaults = dict(
            inclusion=geo.InclusionSpec.disc((0.5, 0.5), 0.25),
            cell_h=1 / 8,
            d1=fem.CoefficientField.isotropic(1.0),
            d2=fem.CoefficientField.constant(np.diag([2.0, 1.0])),
            d3=fem.CoefficientField.isotropic(1.0),
            kinetics=kin.parse_kinetics("langmuir:a=1,b=1"),
            init_c1=bump, init_c2=bump, init_c3=bump,
            dt=2e-3, t_end=0.01, macro_h=1 / 16,
            s_grid=(0.0, 0.5, 1.0, 1.5), lambda_macro=1.5)
        defaults.update(kw)
        return conv.SweepProblem(**defaults)

    def test_zero_data_flags_rates(self):
        zero = lambda x, y: np.zeros_like(np.asarray(x, float))
        problem = self.make_problem(init_c1=zero, init_c2=zero, init_c3=zero,
                                    kinetics=kin.zero_kinetics())
        report = conv.run_sweep(problem, [1 / 4, 1 / 8])
        for vals in report.errors.values():
            assert max(vals) == 0.0
        assert all(r is None for r in report.rates.values())

    def test_budget_exceeded(self):
        problem = self.make_problem(node_budget=100)
        with pytest.raises(ResourceLimitError):
            conv.run_sweep(problem, [1 / 4])

    def test_no_epsilon_rejected_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a cell mesh was built")

        monkeypatch.setattr(conv, "build_unit_cell_mesh", no_work)
        with pytest.raises(ValueError, match="at least one epsilon"):
            conv.run_sweep(self.make_problem(), [])

    def test_repeated_epsilon_rejected_before_any_work(self, monkeypatch):
        # one period twice would run it twice and fit the rate through a
        # doubled point
        def no_work(*args):
            raise AssertionError("a cell mesh was built")

        monkeypatch.setattr(conv, "build_unit_cell_mesh", no_work)
        with pytest.raises(ValueError, match="repeats an epsilon"):
            conv.run_sweep(self.make_problem(), [1 / 4, 1 / 4, 1 / 8])

    def test_heat_only_errors_decrease(self):
        problem = self.make_problem(
            kinetics=kin.zero_kinetics(),
            d2=fem.CoefficientField.isotropic(1.0), t_end=0.02)
        report = conv.run_sweep(problem, [1 / 4, 1 / 8, 1 / 16])
        for name in ("c1", "c2", "c3"):
            assert report.monotone[name], (name, report.errors[name])

    def test_thread_count_does_not_change_results(self):
        problem = self.make_problem()
        r1 = conv.run_sweep(problem, [1 / 4, 1 / 8], threads=1)
        r2 = conv.run_sweep(problem, [1 / 4, 1 / 8], threads=2)
        assert r1.as_json_dict() == r2.as_json_dict()

    def test_each_solver_is_freed_before_its_interpolator(self, monkeypatch):
        # the operators and factors of one epsilon are not held while its
        # interpolator is built
        refs, dead = [], []

        class Tracked(micro.MicroSolver):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        def interpolator(*args):
            dead.append(refs[-1]() is None)
            return P1Interpolator(*args)

        monkeypatch.setattr(micro, "MicroSolver", Tracked)
        monkeypatch.setattr(conv, "P1Interpolator", interpolator)
        conv.run_sweep(self.make_problem(), [1 / 4, 1 / 8])
        assert dead == [True, True]

    def test_report_keeps_series_not_snapshots(self):
        report = conv.run_sweep(self.make_problem(), [1 / 4, 1 / 8])
        steps = 1 + round(0.01 / 2e-3)
        for traj in (*report.trajectories, report.macro_trajectory):
            assert traj.snapshots == []
            assert len(traj.times) == steps

    def test_fingerprint_stable(self, tmp_path):
        # the CLI fingerprints a run: report.json carries the manifest's
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "coefficients": {"d2": [[2.0, 0.0], [0.0, 1.0]]},
            "kinetics": "langmuir:a=1,b=1",
            "cell": {"h": 1 / 8, "s_grid": [0.0, 0.5, 1.0, 1.5],
                     "lambda_macro": 1.5},
            "sweep": {"epsilons": [1 / 4], "dt": 2e-3, "t_end": 0.01,
                      "macro_h": 1 / 16}}))
        reports = []
        for out in ("a", "b"):
            assert cli.main(["sweep", "--config", str(config),
                             "--out", str(tmp_path / out)]) == 0
            report, manifest = (json.loads((tmp_path / out / name).read_text())
                                for name in ("report.json", "manifest.json"))
            assert report["fingerprint"] == manifest["fingerprint"]
            reports.append(report)
        assert reports[0]["fingerprint"] == reports[1]["fingerprint"]
        assert reports[0]["errors"] == reports[1]["errors"]

    def test_report_csv_shape(self):
        problem = self.make_problem()
        report = conv.run_sweep(problem, [1 / 4, 1 / 8])
        lines = report.csv_text().splitlines()
        assert lines[0].startswith("epsilon,err_")
        assert len(lines) == 3
