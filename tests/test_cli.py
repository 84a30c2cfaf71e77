import ctypes
import glob
import importlib
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import porodiff
from porodiff import cell, cli, geometry as geo, kinetics, macro
from porodiff.trajectory import Trajectory


def run_cli(tmp_path, command, config, out="out", extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outdir = tmp_path / out
    code = cli.main([command, "--config", str(cfg_path),
                     "--out", str(outdir), *extra])
    return code, outdir


def assert_config_error(tmp_path, command, config, extra=()):
    """The run exits 2 and leaves no output directory."""
    code, outdir = run_cli(tmp_path, command, config, extra=extra)
    assert code == cli.EXIT_CONFIG
    assert not outdir.exists()


@pytest.fixture
def coupled_solves(monkeypatch):
    """The arguments of every ``cell.solve_coupled_pair`` call of the test."""
    calls = []
    solve = cell.solve_coupled_pair

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cell, "solve_coupled_pair", spy)
    return calls


DISC = {"shape": "disc", "center": [0.5, 0.5], "radius": 0.25}
EYE = [[1, 0], [0, 1]]
CELL = {"geometry": {"inclusion": DISC}, "cell": {"h": 0.1}}
FORCED = {"h": 1 / 8, "dt": 1e-3, "t_end": 2e-3, "forced_b": EYE,
          "forced_d0": EYE}
MICRO = {"epsilon": 0.25, "dt": 1e-3, "t_end": 2e-3}
SWEEP = {"epsilons": [0.25], "dt": 1e-3, "t_end": 2e-3, "macro_h": 1 / 8}
TABULATED = {"h": 1 / 8, "dt": 1e-3, "t_end": 2e-3}
COUPLED = {**CELL, "coefficients": {"d2": [[2, 0], [0, 1]]},
           "kinetics": "langmuir:a=1,b=1"}

# One bad value each, in a section the command may not read: every value
# is converted before the output directory is made.
BAD_VALUES = [
    pytest.param("cell-tensor", {**CELL, "coefficients": {
        "d2": [[1, 0.5], [0, 1]]}}, (), id="unread-asymmetric-d2"),
    pytest.param("btable", {**CELL, "coefficients": {
        "d3": [[1, 0], [0, -1]]}}, (), id="unread-indefinite-d3"),
    pytest.param("macro", {"coefficients": {"d1": 0.0}, "macro": FORCED},
                 (), id="unread-zero-d1"),
    pytest.param("macro", {"macro": {**FORCED, "forced_b": None}}, (),
                 id="forced-d0-alone"),
    pytest.param("macro", {"macro": {**FORCED, "variant": True,
                                     "forced_b": [[1, 0], [0, -1]]}}, (),
                 id="variant-unread-forced-b"),
    pytest.param("validate", {"kinetics": "langmuir:a=1,b=1+langmuir:a=3,b=1"},
                 (), id="two-langmuir-parts"),
    pytest.param("micro", {
        "kinetics": "mm_triple+langmuir:a=1,b=1+langmuir:a=3,b=1",
        "micro": MICRO}, (), id="volume-and-two-langmuir-parts"),
    pytest.param("btable", {**CELL, "kinetics": "nope"}, (),
                 id="unknown-kinetics"),
    pytest.param("macro", {"geometry": {"inclusion": {**DISC, "radius": 0.6}},
                           "macro": FORCED}, (), id="forced-macro-inclusion"),
    pytest.param("validate", {"geometry": {"inclusion": {"shape": "disc"}}},
                 (), id="inclusion-without-radius"),
    *(pytest.param("mesh", {"geometry": {"inclusion": inclusion}}, (),
                   id=f"inclusion-nan-{name}")
      for name, inclusion in (
          ("radius", {**DISC, "radius": math.nan}),
          ("center", {**DISC, "center": [math.nan, 0.5]}),
          ("vertex", {"shape": "polygon", "vertices": [
              [0.3, 0.3], [0.7, 0.3], [0.5, math.nan]]}))),
    # each shape takes its own keys only, and every point is an (x, y) pair
    *(pytest.param(command, {"geometry": {"inclusion": inclusion}}, (),
                   id=f"inclusion-{name}-{command}")
      for name, inclusion in (
          ("short-center", {**DISC, "center": [0.5]}),
          ("long-center", {**DISC, "center": [0.5, 0.5, 0.5]}),
          ("long-vertex", {"shape": "polygon", "vertices": [
              [0.3, 0.3], [0.7, 0.3], [0.5, 0.7, 0.1]]}),
          ("misspelt-radius", {**DISC, "radiuss": 0.3}),
          ("polygon-radius", {"shape": "polygon", "radius": 0.25,
                              "vertices": [[0.3, 0.3], [0.7, 0.3],
                                           [0.5, 0.7]]}),
          ("none-center", {"shape": "none", "center": [0.5, 0.5]}))
      for command in ("mesh", "validate")),
    pytest.param("sweep", {"domain": {"rectangles": [[0, 0, 0, 1]]},
                           "sweep": SWEEP}, (), id="degenerate-rectangle"),
    pytest.param("micro", {"micro": {**MICRO, "epsilon": 0.3}}, (),
                 id="epsilon-not-tiling"),
    pytest.param("macro", {"macro": {**FORCED, "positivity": "sometimes"}},
                 (), id="positivity"),
    pytest.param("micro", {"micro": {**MICRO, "scaling": "slow"}}, (),
                 id="scaling"),
    pytest.param("sweep", {"sweep": {**SWEEP, "t_end": 2.5e-3}}, (),
                 id="t_end-off-grid"),
    pytest.param("macro", {"macro": {**FORCED, "dt": 0.0}}, (), id="zero-dt"),
    pytest.param("sweep", {"sweep": {**SWEEP, "epsilons": []}}, (),
                 id="no-epsilon"),
    pytest.param("sweep", {"sweep": {**SWEEP,
                                     "epsilons": [0.25, 0.25, 0.125]}}, (),
                 id="repeated-epsilon"),
    *(pytest.param("micro", {"micro": {**MICRO, "initial": {
        "c2": {"kind": "sine", "amplitude": amp}}}}, (),
        id=f"amplitude-{name}")
      for name, amp in (("string", "2"), ("bool", True), ("null", None),
                        ("nan", math.nan))),
    *(pytest.param("sweep", {"sweep": {**SWEEP, "epsilons": [eps]}}, (),
                   id=f"epsilon-{name}")
      for name, eps in (("null", None), ("string", "x"), ("bool", True),
                        ("inf", math.inf))),
    *(pytest.param(command, {**CELL, "cell": {**CELL["cell"], key: grid}},
                   (), id=f"{key}-{name}")
      for command, key in (("btable", "s_grid"),
                           ("tensor-suite", "exchange_values"))
      for name, grid in (("null", [0.0, None]), ("bool", [True]),
                         ("nan", [0.0, math.nan, 1.0]))),
    pytest.param("btable", {**CELL, "coefficients": {"d2": [[2, 0], [0, 1]]},
                            "cell": {**CELL["cell"],
                                     "s_grid": [0.0, math.nan, 1.0]}},
                 (), id="s_grid-nan-coupled"),
    pytest.param("btable", {**CELL, "cell": {**CELL["cell"],
                                             "lambda_macro": math.inf}},
                 (), id="unread-infinite-lambda-macro"),
    pytest.param("macro", {"macro": {**FORCED, "theta": math.nan}}, (),
                 id="nan-theta"),
    pytest.param("macro", {"macro": {**FORCED, "theta": 10 ** 400}}, (),
                 id="huge-int-theta"),
    pytest.param("micro", {"domain": {"rectangles": [[0, 0, 1, 10 ** 400]]},
                           "micro": MICRO}, (), id="huge-int-rectangle"),
    pytest.param("cell-tensor", {**CELL, "coefficients": {"d1": 10 ** 400}},
                 (), id="huge-int-d1"),
    pytest.param("validate", {}, ("--threads", "-3"), id="negative-threads"),
    pytest.param("micro", {"micro": MICRO}, ("--budget-nodes", "-1"),
                 id="negative-node-budget"),
    # theta and the table range of lambda_macro, before the cell is solved
    pytest.param("macro", {**COUPLED, "macro": {**TABULATED, "theta": 1.5}},
                 (), id="theta-tabulated"),
    pytest.param("macro", {**COUPLED, "macro": {**TABULATED, "theta": 5,
                                                "variant": True}},
                 (), id="theta-variant"),
    pytest.param("macro", {**COUPLED, "cell": {**CELL["cell"],
                                               "lambda_macro": 5},
                           "macro": TABULATED}, (), id="lambda-past-s-grid"),
    pytest.param("sweep", {**COUPLED, "cell": {**CELL["cell"],
                                               "lambda_macro": 5},
                           "sweep": SWEEP}, (), id="sweep-lambda-past-s-grid"),
    pytest.param("macro", {"cell": {"lambda_macro": 0}, "macro": FORCED}, (),
                 id="forced-lambda-zero"),
    # mesh sizes and the macro grid, before any mesh is built
    pytest.param("mesh", {**CELL, "cell": {"h": 0.3}}, (), id="cell-h-large"),
    pytest.param("cell-tensor", {**CELL, "cell": {"h": 0.0}}, (),
                 id="cell-h-zero"),
    pytest.param("macro", {"macro": {**FORCED, "h": 0.75}}, (),
                 id="macro-h-large"),
    pytest.param("sweep", {"sweep": {**SWEEP, "macro_h": 0.0}}, (),
                 id="sweep-macro-h-zero"),
    pytest.param("macro", {"domain": {"rectangles": [[0, 0, 0.5, 0.3]]},
                           "macro": {**FORCED, "h": 1 / 16}}, (),
                 id="macro-grid-misaligned"),
    pytest.param("micro", {"micro": {**MICRO, "h_cell": 0.05}}, (),
                 id="h_cell-past-eps-over-8"),
    pytest.param("sweep", {"cell": {"h": 0.2}, "sweep": SWEEP}, (),
                 id="sweep-cell-h-past-1-over-8"),
    # a rectangle thinner than the corner tolerance holds no grid cell and
    # no epsilon cell at the run's pitch
    *(pytest.param(command, {"domain": {"rectangles": [[0, 0, 1e-12, 1]]},
                             command: run}, (), id=f"sliver-domain-{command}")
      for command, run in (("macro", FORCED), ("micro", MICRO),
                           ("sweep", SWEEP))),
]


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path):
        code, _ = run_cli(tmp_path, "mesh",
                          {"geometry": {"inclusion": DISC}, "bogus": 1})
        assert code == cli.EXIT_CONFIG

    def test_unknown_nested_key(self, tmp_path):
        code, _ = run_cli(tmp_path, "mesh",
                          {"geometry": {"inclusion": DISC, "oops": 2}})
        assert code == cli.EXIT_CONFIG

    def test_invalid_geometry_exit_2(self, tmp_path):
        bad = {"shape": "disc", "center": [0.5, 0.5], "radius": 0.6}
        assert_config_error(tmp_path, "cell-tensor",
                            {"geometry": {"inclusion": bad}})

    @pytest.mark.parametrize("command,config,extra", BAD_VALUES)
    def test_bad_value_exit_2_before_any_output(self, tmp_path, coupled_solves,
                                                command, config, extra):
        assert_config_error(tmp_path, command, config, extra)
        assert coupled_solves == []

    @pytest.mark.parametrize("command,config", [
        ("macro", {"macro": {"dt": "0.001"}}),
        ("validate", {"kinetics": 5}),
        ("micro", {"micro": {"scaling": 1, "dt": 1e-3, "t_end": 2e-3}}),
        ("micro", {"micro": {"epsilon": True, "dt": 1e-3, "t_end": 2e-3}}),
        ("macro", {"macro": {"variant": 1, "h": 1 / 8, "t_end": 2e-3}}),
        ("mesh", {"geometry": {"inclusion": DISC}, "cell": {"h": "0.1"}}),
        ("mesh", {"geometry": {"inclusion": "disc"}}),
        ("micro", {"micro": {"h_cell": "0.01", "dt": 1e-3, "t_end": 2e-3}}),
        ("btable", {"cell": {"lambda_macro": "x"}}),
        ("macro", {"macro": {"initial": {"c1": {"kind": "cubic"}}}}),
        ("sweep", {"sweep": {"snapshot_every": 1.5, "epsilons": [0.25],
                             "dt": 1e-3, "t_end": 2e-3}})])
    def test_declared_types_enforced(self, tmp_path, command, config):
        assert_config_error(tmp_path, command, config)

    def test_int_passes_for_float_uncoerced(self, tmp_path):
        code, outdir = run_cli(tmp_path, "macro", {
            **CELL, "cell": {**CELL["cell"], "lambda_macro": 2},
            "macro": FORCED})
        assert code == 0
        config = json.loads((outdir / "manifest.json").read_text())["config"]
        assert config["cell"]["lambda_macro"] == 2
        assert isinstance(config["cell"]["lambda_macro"], int)

    def test_int_beyond_uint64_passes_for_float(self):
        # a float holds it, though numpy makes it an object scalar
        cfg = cli.resolve_config({"cell": {"lambda_macro": 10 ** 23}}, "macro")
        assert cfg["cell"]["lambda_macro"] == 10 ** 23

    @pytest.mark.parametrize("config", [{"seed": 0},
                                        {"geometry": {"h": 0.05}},
                                        {"cell": {"midpoint_tol": 0.1}}])
    def test_removed_keys_exit_2(self, tmp_path, config):
        # seed and geometry.h changed no output, and a table no longer
        # refines its grid; a manifest with them is stale
        assert_config_error(tmp_path, "mesh", config)

    @pytest.mark.parametrize("d3", [
        0.0, -1.0, float("nan"), True, [[1, 0], [0, -1]],
        [[1, 0], [0, float("inf")]], [[1, 0.5], [0, 1]],
        [[1, "0"], ["0", 1]], [[True, 0], [0, 1]]])
    def test_bad_constant_coefficient_exit_2(self, tmp_path, d3):
        assert_config_error(tmp_path, "cell-tensor",
                            {**CELL, "coefficients": {"d3": d3}})

    @pytest.mark.parametrize("rectangles", [
        [[0, 0, 1]], [[0, 0, 1, "1"]], [[0, 0, 1, True]], [[0, 0, 1, math.inf]],
        [0, 0, 1, 1], [[0, 0, 0, 1]], [[1, 0, 0, 1]], []])
    def test_bad_domain_rectangle_exit_2(self, tmp_path, rectangles):
        assert_config_error(tmp_path, "micro",
                            {"domain": {"rectangles": rectangles},
                             "micro": MICRO})

    @pytest.mark.parametrize("kinetics",
                             ["mm_triple:a0=2", "mm_triple:foo=1", "zero:a=3",
                              "langmuir:a=1,b=1,a=5"])
    def test_kinetics_text_takes_langmuir_parameters_only(self, tmp_path,
                                                         kinetics):
        assert_config_error(tmp_path, "validate", {"kinetics": kinetics})

    @pytest.mark.parametrize("command,kinetics", [
        ("micro", "mm_triple+langmuir:a=nan,b=1"),
        ("validate", "langmuir:a=inf,b=1"),
        ("validate", "langmuir:a=1,b=nan")])
    def test_non_finite_langmuir_parameter_exit_2(self, tmp_path, command,
                                                 kinetics):
        config = {"kinetics": kinetics}
        if command == "micro":
            config["micro"] = MICRO
        assert_config_error(tmp_path, command, config)

    def test_defaults_materialized_in_manifest(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mesh", CELL)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["cell"]["h"] == 0.1
        assert manifest["config"]["cell"]["s_grid"] == [0.0, 0.5, 1.0, 2.0]
        assert "fingerprint" in manifest
        assert manifest["command"] == "mesh"


class TestCommands:
    def test_cell_tensor_artifact(self, tmp_path):
        code, outdir = run_cli(
            tmp_path, "cell-tensor",
            {"geometry": {"inclusion": DISC},
             "coefficients": {"d3": 1.0}})
        assert code == 0
        doc = json.loads((outdir / "d0.json").read_text())
        mat = np.asarray(doc["matrix"])
        assert np.abs(mat - mat.T).max() < 1e-10
        assert doc["min_eig"] > 0
        assert doc["cross_check_err"] <= 1e-9

    def test_btable_cardinality(self, tmp_path):
        grid = [0.0, 0.5, 1.0, 2.0]
        code, outdir = run_cli(
            tmp_path, "btable",
            {"geometry": {"inclusion": DISC},
             "coefficients": {"d1": 1.0, "d2": [[2, 0], [0, 1]]},
             "kinetics": "langmuir:a=1,b=1",
             "cell": {"h": 0.1, "s_grid": grid}})
        assert code == 0
        doc = json.loads((outdir / "btable.json").read_text())
        assert len(doc["entries"]) >= len(grid)

    def test_mesh_roundtrip(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mesh", CELL)
        assert code == 0
        mesh = geo.build_unit_cell_mesh(geo.InclusionSpec.from_config(DISC),
                                        CELL["cell"]["h"])
        stats = json.loads((outdir / "mesh_stats.json").read_text())
        assert stats == {
            "n_nodes": mesh.n_nodes, "n_triangles": mesh.n_triangles,
            "area": mesh.area,
            "gamma_length": mesh.marked_length(geo.EdgeMarker.GAMMA),
            "gamma_loops": 1}

    def test_mesh_is_the_cell_mesh_at_cell_h(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mesh", CELL)
        assert code == 0
        expected = tmp_path / "expected.poromesh"
        geo.write_poromesh(geo.build_unit_cell_mesh(
            geo.InclusionSpec.from_config(DISC), CELL["cell"]["h"]), expected)
        assert (outdir / "cell.poromesh").read_bytes() == \
            expected.read_bytes()

    def test_validate_builtin_passes(self, tmp_path):
        code, outdir = run_cli(tmp_path, "validate",
                               {"kinetics": "mm_triple+langmuir:a=1,b=1"})
        assert code == 0
        doc = json.loads((outdir / "validate.json").read_text())
        assert doc["passed"]

    def test_validate_kinetics_report_pinned(self, tmp_path):
        # the library's recorded report of the same string, which carries
        # a -0.0 that == takes for 0.0 and the serialized report does not
        code, outdir = run_cli(tmp_path, "validate",
                               {"kinetics": "mm_mixed+langmuir:a=1,b=1"})
        assert code == 0
        got = json.loads((outdir / "validate.json").read_text())["kinetics"]
        want = json.loads(Path(__file__).with_name(
            "validate_reference.json").read_text())["mm_mixed+langmuir:a=1,b=1"]
        assert got == want
        assert json.dumps(got, sort_keys=True) == json.dumps(want,
                                                             sort_keys=True)

    def test_validate_reports_geometry_failure(self, tmp_path):
        bad = {"shape": "disc", "center": [0.5, 0.5], "radius": 0.49}
        code, outdir = run_cli(tmp_path, "validate",
                               {"geometry": {"inclusion": bad},
                                "kinetics": "zero"})
        assert code == 0
        doc = json.loads((outdir / "validate.json").read_text())
        assert not doc["geometry"]["passed"]
        assert not doc["passed"]

    def test_tensor_suite(self, tmp_path):
        code, outdir = run_cli(
            tmp_path, "tensor-suite",
            {"geometry": {"inclusion": DISC},
             "coefficients": {"d1": 1.0, "d2": [[2, 0], [0, 1]], "d3": 1.0},
             "cell": {"h": 0.1}})
        assert code == 0
        doc = json.loads((outdir / "suite.json").read_text())
        assert doc["passed"]

    def test_tensor_suite_anisotropic_d3_passes(self, tmp_path):
        # the tensor of an anisotropic d3 is anisotropic on a centred disc
        # too; a check demanding isotropy failed it at 3.7e-1
        code, outdir = run_cli(
            tmp_path, "tensor-suite",
            {"geometry": {"inclusion": DISC},
             "coefficients": {"d3": [[1.5, 0.2], [0.2, 1.0]]},
             "cell": {"h": 0.1}})
        assert code == 0
        doc = json.loads((outdir / "suite.json").read_text())
        assert doc["passed"]
        assert "centered_disc_rotation" in [c["name"] for c in doc["checks"]]

    def test_macro_heat_oracle(self, tmp_path):
        config = {
            "coefficients": {"d1": 1.0, "d2": 1.0, "d3": 1.0},
            "kinetics": "zero",
            "macro": {"h": 1 / 16, "dt": 1e-3, "t_end": 0.02,
                      "forced_b": [[1, 0], [0, 1]],
                      "forced_d0": [[1, 0], [0, 1]],
                      "initial": {"c1": {"kind": "sine"},
                                  "c2": {"kind": "sine"},
                                  "c3": {"kind": "sine"}}},
        }
        code, outdir = run_cli(tmp_path, "macro", config)
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, map(float, lines[1].split(","))))
        last = dict(zip(header, map(float, lines[-1].split(","))))
        T = last["t"]
        decay_c = last["norm_c"] / first["norm_c"]
        decay_c3 = last["norm_c3"] / first["norm_c3"]
        assert abs(decay_c / math.exp(-math.pi ** 2 * T) - 1) < 0.05
        assert abs(decay_c3 / math.exp(-2 * math.pi ** 2 * T) - 1) < 0.05

    def test_variant_macro_tabulates_no_b_table(self, tmp_path,
                                                monkeypatch):
        calls = []
        tabulate_b = cell.tabulate_b

        def record(*args, **kwargs):
            calls.append(args)
            return tabulate_b(*args, **kwargs)

        monkeypatch.setattr(cell, "tabulate_b", record)
        config = {
            "geometry": {"inclusion": DISC},
            "coefficients": {"d1": 1.0, "d2": [[2, 0], [0, 1]], "d3": 1.0},
            "kinetics": "langmuir:a=1,b=1",
            "cell": {"h": 0.1},
            "macro": {"h": 1 / 8, "dt": 1e-3, "t_end": 2e-3,
                      "variant": True},
        }
        code, outdir = run_cli(tmp_path, "macro", config)
        assert code == 0 and calls == []
        header = (outdir / "trajectory.csv").read_text().splitlines()[0]
        assert "norm_c1" in header.split(",")

    def test_forced_macro_keeps_the_surface_source(self, tmp_path):
        # with both tensors forced the G3 source still needs |Gamma|/|Y*|
        code, outdir = run_cli(tmp_path, "macro", {
            "kinetics": "mm_mixed", "macro": {**FORCED, "t_end": 5e-3}})
        assert code == 0
        ctx = cell.CellContext.from_mesh(geo.build_unit_cell_mesh(
            geo.InclusionSpec.from_config(DISC), 0.05))
        mesh = geo.build_macro_mesh(geo.RectUnion.unit_square(), 1 / 8)
        x, y = mesh.nodes.T
        bump = 16.0 * x * (1 - x) * y * (1 - y)
        solver = macro.MacroSolver(mesh, macro.MacroConfig(
            dt=1e-3, t_end=5e-3, d0=np.eye(2),
            btable=cell.DispersionTable.constant(np.eye(2), s_max=2.0),
            kinetics=kinetics.parse_kinetics("mm_mixed"),
            gamma_length=ctx.gamma_length, cell_area=ctx.area,
            lambda_macro=2.0, cell_ctx=ctx))
        traj = solver.run(macro.MacroState(0.0, bump, bump))
        assert (outdir / "trajectory.csv").read_text() == traj.csv_text()

    @pytest.mark.parametrize("command,config", [
        ("micro", {"micro": {**MICRO, "t_end": 5e-3}}),
        ("macro", {"macro": {**FORCED, "t_end": 5e-3},
                   "output": {"snapshot_fields": True}})])
    def test_single_runs_keep_first_and_last_snapshots(
            self, tmp_path, monkeypatch, command, config):
        kept = []
        record = Trajectory.record

        def spy(self, t, fields, *args, snapshot=False):
            kept.extend([t] if snapshot else [])
            return record(self, t, fields, *args, snapshot=snapshot)

        monkeypatch.setattr(Trajectory, "record", spy)
        code, _ = run_cli(tmp_path, command, config)
        assert code == 0
        assert kept == [0.0, pytest.approx(5e-3)]

    def test_micro_outputs(self, tmp_path):
        config = {
            "geometry": {"inclusion": DISC},
            "coefficients": {"d1": 1.0, "d2": 1.0, "d3": 1.0},
            "kinetics": "langmuir:a=1,b=1",
            "micro": {"epsilon": 0.25, "dt": 1e-3, "t_end": 5e-3,
                      "initial": {"c2": {"kind": "bump", "amplitude": 0.5}}},
        }
        code, outdir = run_cli(tmp_path, "micro", config)
        assert code == 0
        assert (outdir / "trajectory.csv").exists()
        assert (outdir / "gamma_gap.csv").exists()

    def test_t_end_off_the_time_grid_exit_2(self, tmp_path):
        config = {
            "geometry": {"inclusion": DISC},
            "micro": {"epsilon": 0.25, "dt": 0.004, "t_end": 0.01},
        }
        code, _ = run_cli(tmp_path, "micro", config)
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command,section", [
        ("micro", {"epsilon": 0.25}),
        ("macro", {"h": 1 / 8, "forced_b": [[1, 0], [0, 1]],
                   "forced_d0": [[1, 0], [0, 1]]}),
        ("sweep", {"epsilons": [0.25], "macro_h": 1 / 8})])
    def test_snapshot_every_zero_exit_2(self, tmp_path, command, section):
        # only a sweep reads snapshot_every (its error quadrature) and
        # checks it before any output; the single runs do not take the key
        config = {"geometry": {"inclusion": DISC},
                  command: {**section, "dt": 1e-3, "t_end": 2e-3,
                            "snapshot_every": 0}}
        assert_config_error(tmp_path, command, config)

    def test_sweep_takes_no_output_section(self, tmp_path):
        assert_config_error(tmp_path, "sweep", {
            "sweep": SWEEP, "output": {"snapshot_fields": True}})

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0], [0.5, 1.0]])
    def test_bad_s_grid_exit_2_before_any_solve(self, tmp_path,
                                                coupled_solves, grid):
        assert_config_error(tmp_path, "btable", {
            **COUPLED, "cell": {**CELL["cell"], "s_grid": grid}})
        assert coupled_solves == []

    @pytest.mark.parametrize("theta,code", [
        (-1, cli.EXIT_CONFIG), (3, cli.EXIT_CONFIG), (0, cli.EXIT_OK),
        (0.5, cli.EXIT_OK), (1, cli.EXIT_OK)])
    def test_macro_theta_range(self, tmp_path, theta, code):
        config = {"geometry": {"inclusion": DISC},
                  "macro": {**FORCED, "theta": theta}}
        if code == cli.EXIT_CONFIG:
            assert_config_error(tmp_path, "macro", config)
        else:
            got, outdir = run_cli(tmp_path, "macro", config)
            assert got == code
            assert (outdir / "trajectory.csv").exists()

    @pytest.mark.parametrize("key", ["forced_b", "forced_d0"])
    @pytest.mark.parametrize("value,code", [
        ([[1, 0], [0, -1]], cli.EXIT_CONFIG),
        ([[1, 0], [0, float("nan")]], cli.EXIT_CONFIG),
        ([[1, 0.5], [0, 1]], cli.EXIT_CONFIG),
        (1.0, cli.EXIT_OK)])
    def test_macro_forced_tensors_checked(self, tmp_path, key, value, code):
        # a forced tensor is checked as a coefficient; a scalar s is s I
        config = {"geometry": {"inclusion": DISC},
                  "macro": {"h": 1 / 8, "forced_b": [[1, 0], [0, 1]],
                            "forced_d0": [[1, 0], [0, 1]], key: value,
                            "dt": 1e-3, "t_end": 2e-3}}
        got, outdir = run_cli(tmp_path, "macro", config)
        assert got == code
        assert (outdir / "trajectory.csv").exists() == (code == cli.EXIT_OK)

    @pytest.mark.parametrize("command,section", [
        ("macro", {"h": -0.1}), ("macro", {"h": 5.0}),
        ("sweep", {"macro_h": -0.1, "epsilons": [0.25]})])
    def test_macro_mesh_size_exit_2(self, tmp_path, command, section):
        eye = [[1, 0], [0, 1]]
        config = {"geometry": {"inclusion": DISC},
                  "macro": {"forced_b": eye, "forced_d0": eye},
                  command: {**section, "dt": 1e-3, "t_end": 2e-3}}
        if command == "sweep":
            del config["macro"]
        got, outdir = run_cli(tmp_path, command, config)
        assert got == cli.EXIT_CONFIG
        assert not (outdir / "trajectory.csv").exists()

    def test_micro_budget_exit_4(self, tmp_path):
        # the node budget is checked on the unit-cell mesh, before the
        # output directory is made
        config = {
            "geometry": {"inclusion": DISC},
            "micro": {"epsilon": 0.125, "dt": 1e-3, "t_end": 1e-3},
        }
        code, outdir = run_cli(tmp_path, "micro", config,
                               extra=("--budget-nodes", "100"))
        assert code == cli.EXIT_BUDGET
        assert not outdir.exists()

    def test_sweep_budget_exit_4(self, tmp_path):
        code, outdir = run_cli(tmp_path, "sweep", {"sweep": SWEEP},
                               extra=("--budget-nodes", "100"))
        assert code == cli.EXIT_BUDGET
        assert not outdir.exists()

    def test_sweep_rows_and_threads_determinism(self, tmp_path):
        config = {
            "geometry": {"inclusion": DISC},
            "coefficients": {"d1": 1.0, "d2": [[2, 0], [0, 1]], "d3": 1.0},
            "kinetics": "langmuir:a=1,b=1",
            "cell": {"h": 0.125, "s_grid": [0.0, 0.5, 1.0, 1.5],
                     "lambda_macro": 1.5},
            "sweep": {"epsilons": [0.25, 0.125], "dt": 2e-3, "t_end": 0.01,
                      "macro_h": 1 / 16, "snapshot_every": 1},
        }
        code1, out1 = run_cli(tmp_path, "sweep", config, out="s1")
        code2, out2 = run_cli(tmp_path, "sweep", config, out="s2",
                              extra=("--threads", "3"))
        assert code1 == code2 == 0
        doc = json.loads((out1 / "report.json").read_text())
        assert len(doc["epsilons"]) == 2
        for name in ("s1", "s2"):
            pass
        files = sorted(os.listdir(out1))
        assert files == sorted(os.listdir(out2))
        for fname in files:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), \
                fname


def test_sweep_reference_runs_are_the_single_runs(tmp_path):
    # a sweep's macro run is `porodiff macro`, and each of its micro runs
    # is `porodiff micro` at that epsilon with h_cell = eps * cell.h
    config = {**COUPLED, "cell": {"h": 1 / 8}}
    steps = {"dt": 1e-3, "t_end": 0.01}
    code, sweep = run_cli(tmp_path, "sweep", {**config, "sweep": {
        **steps, "epsilons": [0.25, 0.125], "macro_h": 1 / 32}}, out="sweep")
    assert code == 0
    code, single = run_cli(tmp_path, "macro", {
        **config, "macro": {**steps, "h": 1 / 32}}, out="macro")
    assert code == 0
    assert (sweep / "macro_trajectory.csv").read_bytes() == \
        (single / "trajectory.csv").read_bytes()
    del config["cell"]  # micro takes no cell section
    code, single = run_cli(tmp_path, "micro", {**config, "micro": {
        **steps, "epsilon": 0.125, "h_cell": 1 / 64}}, out="micro")
    assert code == 0
    assert (sweep / "micro_trajectory_eps0p125.csv").read_bytes() == \
        (single / "trajectory.csv").read_bytes()
    assert (sweep / "gamma_gap_eps0p125.csv").read_bytes() == \
        (single / "gamma_gap.csv").read_bytes()


def test_sweep_builds_initial_data_through_the_module_closure(
        tmp_path, monkeypatch):
    # Benchmarks seed the sweep's initial data by replacing
    # cli._initial_closure, so the CLI must look it up at run time.
    specs, evaluated = [], []
    build = cli._initial_closure

    def record(spec):
        index = len(specs)
        specs.append(spec)
        closure = build(spec)

        def evaluate(x, y):
            evaluated.append(index)
            return closure(x, y)

        return evaluate

    monkeypatch.setattr(cli, "_initial_closure", record)
    code, _ = run_cli(tmp_path, "sweep", {
        **CELL, "cell": {"h": 0.125, "s_grid": [0.0, 0.5, 1.0, 1.5],
                         "lambda_macro": 1.5},
        "sweep": {**SWEEP, "initial": {"c3": {"kind": "sine"}}}})
    assert code == 0
    assert specs == [{"kind": "bump", "amplitude": 1.0}] * 2 + [
        {"kind": "sine", "amplitude": 1.0}]
    # each closure is evaluated on the macro mesh and the epsilon mesh
    assert sorted(evaluated) == [0, 0, 1, 1, 2, 2]


# Every command on tiny sections (two steps), under the two spellings of an
# unperforated cell and a triangle: an empty Gamma is a valid geometry.
MATRIX_SHAPES = {
    "none": {"shape": "none"},
    "radius0": {**DISC, "radius": 0.0},
    "triangle": {"shape": "polygon",
                 "vertices": [[0.3, 0.3], [0.7, 0.3], [0.5, 0.7]]},
}
MATRIX_SECTIONS = {
    "coefficients": {"d2": [[2, 0], [0, 1]]},
    "kinetics": "langmuir:a=1,b=1",
    "cell": {"h": 1 / 8},
    "macro": {"h": 1 / 4, "dt": 1e-3, "t_end": 2e-3},
    "micro": {"epsilon": 1 / 2, "dt": 1e-3, "t_end": 2e-3},
    "sweep": {"epsilons": [1 / 2, 1 / 4], "dt": 1e-3, "t_end": 2e-3,
              "macro_h": 1 / 4},
}
MATRIX_ARTIFACTS = {
    "validate": "validate.json", "mesh": "mesh_stats.json",
    "cell-tensor": "d0.json", "btable": "btable.json",
    "macro": "trajectory.csv", "macro-variant": "trajectory.csv",
    "micro": "gamma_gap.csv", "sweep": "gamma_gap_eps0p25.csv",
    "tensor-suite": "suite.json",
}


@pytest.mark.parametrize("shape", MATRIX_SHAPES)
@pytest.mark.parametrize("command", MATRIX_ARTIFACTS)
def test_every_command_runs_on_every_shape(tmp_path, command, shape):
    name = command.removesuffix("-variant")
    config = {"geometry": {"inclusion": MATRIX_SHAPES[shape]}}
    for section in cli._COMMAND_SECTIONS[name]:
        if section in MATRIX_SECTIONS:
            config[section] = MATRIX_SECTIONS[section]
    if command == "macro-variant":
        config["macro"] = {**config["macro"], "variant": True}
    code, outdir = run_cli(tmp_path, name, config)
    assert code == cli.EXIT_OK
    artifact = outdir / MATRIX_ARTIFACTS[command]
    assert artifact.exists()
    if name in ("micro", "sweep") and shape != "triangle":
        gaps = [float(line.split(",")[1])
                for line in artifact.read_text().splitlines()[1:]]
        assert len(gaps) >= 2 and not any(gaps)


class TestManifestRerun:
    def test_rerun_byte_identical(self, tmp_path):
        config = {
            "geometry": {"inclusion": DISC},
            "coefficients": {"d1": 1.0, "d2": 1.0, "d3": 1.0},
            "kinetics": "langmuir:a=1,b=1",
            "micro": {"epsilon": 0.25, "dt": 1e-3, "t_end": 5e-3},
        }
        _, out1 = run_cli(tmp_path, "micro", config, out="a")
        # rerun from the materialized manifest config
        manifest = json.loads((out1 / "manifest.json").read_text())
        _, out2 = run_cli(tmp_path, "micro", manifest["config"], out="b")
        for fname in sorted(os.listdir(out1)):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_field_snapshot_output(tmp_path):
    config = {
        "coefficients": {"d1": 1.0, "d2": 1.0, "d3": 1.0},
        "kinetics": "zero",
        "macro": {"h": 1 / 8, "dt": 1e-3, "t_end": 2e-3,
                  "forced_b": [[1, 0], [0, 1]],
                  "forced_d0": [[1, 0], [0, 1]],
                  "initial": {"c1": {"kind": "sine"}, "c2": {"kind": "sine"},
                              "c3": {"kind": "sine"}}},
        "output": {"snapshot_fields": True},
    }
    code, outdir = run_cli(tmp_path, "macro", config)
    assert code == 0
    text = (outdir / "final_c.field").read_text().splitlines()
    name, version = text[0].split()[2], text[0].split()[1]
    assert text[0].startswith("field v1 c ")
    n = int(text[0].split()[-1])
    assert len(text) == n + 1
    float(text[1])


def test_main_pins_bundled_blas_to_one_thread(tmp_path):
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        pytest.skip("numpy has no bundled OpenBLAS")
    lib = ctypes.CDLL(libs[0])
    lib.scipy_openblas_set_num_threads64_(2)
    code, _ = run_cli(tmp_path, "validate", {"kinetics": "langmuir:a=1,b=1"})
    assert code == 0
    assert lib.scipy_openblas_get_num_threads64_() == 1


def test_readme_sweep_example_resolves():
    # a key deleted from the schema must not linger in the documented config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    examples = [json.loads(b) for b in blocks if '"sweep"' in b]
    assert len(examples) == 1
    resolved = cli.resolve_config(examples[0], "sweep")
    assert cli.resolve_config(resolved, "sweep") == resolved


def _module_state():
    """(value, contents) of every global of every porodiff module and of
    every attribute of the classes they define; contents is a shallow copy
    of a dict, list, set or array, else None."""
    state = {}
    for info in pkgutil.iter_modules(porodiff.__path__):
        module = importlib.import_module(f"porodiff.{info.name}")
        names = dict(vars(module))
        for cls_name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update((f"{cls_name}.{attr}", v)
                             for attr, v in vars(value).items())
        for name, value in names.items():
            contents = (value.copy()
                        if isinstance(value, (dict, list, set, np.ndarray))
                        else None)
            state[f"{info.name}.{name}"] = (value, contents)
    return state


def _unchanged(before, after):
    """True when ``after`` is ``before``'s object with the same contents."""
    (value, contents), (now, _) = before, after
    if now is not value:
        return False
    if isinstance(value, np.ndarray):
        return np.array_equal(contents, now)
    if isinstance(value, dict):
        return contents.keys() == now.keys() and all(
            contents[k] is now[k] for k in contents)
    if isinstance(value, list):
        return len(contents) == len(now) and all(
            a is b for a, b in zip(contents, now))
    if isinstance(value, set):
        return contents == now
    return True


def test_runs_change_no_module_state_but_the_factor_cache(tmp_path):
    # shared state lives on the objects a run makes (a CellContext holds
    # its scalar cells), so threads and later runs cannot see it; the one
    # module-level store is the content-keyed LU cache of fem.splu_factor
    before = _module_state()
    runs = [("sweep", {**COUPLED, "cell": {"h": 1 / 8}, "sweep": SWEEP}),
            ("macro", {**COUPLED, "macro": TABULATED}),
            ("micro", {"micro": MICRO}),
            ("tensor-suite", CELL)]
    for command, config in runs:
        code, _ = run_cli(tmp_path, command, config, out=command)
        assert code == cli.EXIT_OK, command
    after = _module_state()
    assert after.keys() == before.keys()
    changed = [name for name in before
               if not _unchanged(before[name], after[name])]
    # an earlier test may already have cached every factor these runs use
    assert set(changed) <= {"fem._factor_cache"}
