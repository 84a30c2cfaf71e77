"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The last test runs sweep_fast twice traced (about 20 s).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402
from porodiff import convergence, fem, geometry, interpolate  # noqa: E402
from run import sample  # noqa: E402
from tracer import Tracer  # noqa: E402


def _patched_attributes():
    targets = [(owner, attr) for owner, attr, _, _ in layers._SPANS]
    targets += [(owner, attr) for owner in (geometry, convergence)
                for attr, _ in layers._MESH_BUILDERS]
    targets += [(interpolate.P1Interpolator, "__init__"), (fem.spla, "splu"),
                (fem.spla, "cg")]
    return {(id(owner), attr): (attr in vars(owner), getattr(owner, attr))
            for owner, attr in targets}


def test_tracer_restores_every_attribute():
    before = _patched_attributes()
    tracer = Tracer()
    layers.install(tracer)
    patched = _patched_attributes()
    assert all(patched[k][1] is not before[k][1] for k in before)
    tracer.restore()
    after = _patched_attributes()
    assert after.keys() == before.keys()
    for key, (own, value) in before.items():
        assert after[key][0] == own
        assert after[key][1] is value


def test_self_time_on_synthetic_nesting():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")            # a: 0 .. 10
    tracer.enter("b")            # b: 1 .. 4
    tracer.leave()
    tracer.enter("c")            # c: 5 .. 9
    tracer.enter("c")            # nested c: 6 .. 7
    tracer.leave()
    tracer.leave()
    tracer.leave()
    totals = tracer.totals()
    assert totals["a"] == (10.0, 10.0 - 3.0 - 4.0, 1)
    assert totals["b"] == (3.0, 3.0, 1)
    # the nested c counts towards c's self time but not twice in its total
    assert totals["c"] == (4.0, (4.0 - 1.0) + 1.0, 2)


def test_traced_calls_are_counted_and_returned():
    tracer = Tracer()
    layers.install(tracer)
    try:
        A = fem.assemble_mass(geometry.build_macro_mesh(
            geometry.RectUnion.unit_square(), 0.25))
        x = fem.solve_sparse(A.tocsr(), np.ones(A.shape[0]), method="cg")
        fem.solve_sparse(A.tocsr(), np.ones(A.shape[0]), method="direct")
        fem.solve_sparse(A.tocsr(), 2 * np.ones(A.shape[0]), method="direct")
    finally:
        tracer.restore()
    assert np.allclose(A @ x, 1.0)
    m = layers.metrics(tracer)
    assert m["geometry.nodes"] == A.shape[0]
    assert m["fem.cg_calls"] == 1 and m["fem.cg_iters"] >= 1
    assert m["fem.factor_calls"] >= 2
    assert m["fem.factor_count"] < m["fem.factor_calls"]
    assert m["fem.factor_reuse_ratio"] > 0
    assert m["fem.assemble_s"] > 0 and m["fem.cg_s"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == {n: v[:2] for n, v in layers.PER_LAYER.items()}
    reported = set(layers.metrics(Tracer())) | {"trace.wall_s",
                                                "trace.overhead_s"}
    assert reported == set(listed)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_seeded_factor_keeps_data_in_range():
    assert workloads.bump_factor(0) is None
    x, y = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
    for seed in range(1, 50):
        f = workloads.bump_factor(seed)(x, y)
        assert f.min() >= 0.8 - 1e-12 and f.max() <= 1.2 + 1e-12
        assert np.array_equal(f, workloads.bump_factor(seed)(x, y))
    assert not np.array_equal(workloads.bump_factor(1)(x, y),
                              workloads.bump_factor(2)(x, y))


def test_reference_check_rejects_a_wrong_answer():
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)["micro_eps32"]
    assert workloads.check_micro_eps32(ref, 0, ref) == []
    wrong = json.loads(json.dumps(ref))
    wrong["gamma_gap"] *= 1 + 1e-5
    assert workloads.check_micro_eps32(wrong, 0, ref)
    close = json.loads(json.dumps(ref))
    close["gamma_gap"] *= 1 + 1e-9
    assert workloads.check_micro_eps32(close, 0, ref) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_fast",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_counts_repeat():
    keys = ("fem.factor_count", "fem.cg_iters", "micro.steps", "macro.steps",
            "geometry.nodes", "fem.factor_calls", "cell.coupled_solves")
    runs = []
    for _ in range(2):
        result, _ = sample("sweep_fast", 3, True, time.monotonic() + 170)
        assert result is not None and result["problems"] == []
        runs.append({k: result["layers"][k] for k in keys})
    assert runs[0] == runs[1]
    assert all(runs[0][k] > 0 for k in keys)
