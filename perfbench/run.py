"""porodiff benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sweep_fast --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. Every sample is a fresh interpreter running
``child.py`` (closed loop, one client, ``--threads 1``, BLAS and OpenMP
pinned to one thread), started back to back until the next sample would
overrun ``--seconds``. Samples never share a process, so none of them is
served by LU factors cached in another.

End-to-end metrics, measured with tracing off (``--trace 0``):

- ``setup_s``: from starting the interpreter to the first timed call
  (imports, inputs, and for micro_eps32 and homogenized the meshes and
  solver set-up);
- ``wall_s``: from the first timed call to the result in hand;
- ``peak_rss_mb``: ``ru_maxrss`` of the sample's process.

Each is the median over the run's samples. ``fail_ratio`` (failed over
attempted samples; a sample fails if it raises, exits non-zero or fails its
output check) is printed with them and carried by ``attempted`` and
``failed`` in the result line, since it is zero on a correct program.

With ``--trace 1`` traced and untraced samples alternate; the per-layer
metrics are medians over the traced ones, and ``trace.overhead_s`` is the
traced minus the untraced median ``wall_s``.

The last line of stdout is the JSON result. Without porodiff's sources
beside the benchmark the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_fast", "micro_eps32", "homogenized")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
RUN_CAP_S = 170.0      # a run ends within 180 s, whatever --seconds says


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def machine(versions):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "threads": {var: "1" for var in THREAD_VARS},
            "loop": "closed, 1 client, --threads 1, "
                    "fresh interpreter per sample"}


def sample(workload, seed, traced, deadline):
    """Run one child; returns (result or None, seconds it took)."""
    workdir = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", workdir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {time.monotonic() - start:.1f} s",
              file=sys.stderr)
        return None, time.monotonic() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    took = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"sample exited with code {proc.returncode}", file=sys.stderr)
        return None, took
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print("sample printed no result", file=sys.stderr)
        return None, took
    result["setup_s"] = result["first_call"] - start
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return result, took


def run_workload(workload, seed, seconds, trace):
    """Samples of one workload until ``seconds`` is used up."""
    start = time.monotonic()
    deadline = start + min(seconds, RUN_CAP_S)
    hard_deadline = start + RUN_CAP_S
    plain, traced, failed, longest = [], [], 0, 0.0
    while True:
        want_trace = bool(trace) and len(plain) > len(traced)
        result, took = sample(workload, seed, want_trace, hard_deadline)
        longest = max(longest, took)
        if result is None or result["problems"]:
            failed += 1
        if result is not None:
            (traced if want_trace else plain).append(result)
        now = time.monotonic()
        need_more = trace and not (plain and traced)
        if now + longest > (hard_deadline if need_more else deadline):
            break
    return plain, traced, failed


def median(results, key):
    return statistics.median(r[key] for r in results)


def summarize(workload, seed, trace, plain, traced, failed):
    attempted = len(plain) + len(traced)
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced samples")
    if not plain or (trace and not traced):
        return None
    for name, unit in END_TO_END.items():
        values = sorted(r[name] for r in plain)
        print(f"  {name}: median {statistics.median(values):.4f} {unit} "
              f"(n={len(values)}, min {values[0]:.4f}, max {values[-1]:.4f}; "
              f"{tail_percentile(values)})")
    print(f"  fail_ratio: {failed}/{attempted} = "
          f"{failed / attempted:.4f} ratio")
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.wall_s"] = median(traced, "wall_s")
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - median(plain, "wall_s"))
        units = per_layer_units()
        for name in sorted(layers):
            print(f"  {name}: {layers[name]:.6g} {units[name]}")
        metrics = {n: {"value": v, "unit": units[n]}
                   for n, v in layers.items()}
    else:
        metrics = {n: {"value": median(plain, n), "unit": u}
                   for n, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def tail_percentile(values):
    """The highest percentile of sorted ``values`` with >= 10 samples beyond."""
    n = len(values)
    if n < 11:
        return "no percentile has 10 samples beyond it"
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)          # ceil(p n / 100), at most n - 10
    return f"p{p} {values[max(rank, 1) - 1]:.4f}, {n - rank} samples beyond"


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "porodiff",
                                       "__init__.py")):
        print(f"porodiff sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    # Compile once up front so that no sample's set-up includes compiling.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE], check=True,
                   stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        plain, traced, failed = run_workload(name, args.seed, args.seconds,
                                             args.trace)
        if plain:
            print("machine: " + json.dumps(machine(plain[0]["versions"])))
        result = summarize(name, args.seed, args.trace, plain, traced, failed)
        if result is None:
            print(f"{name}: no sample completed", file=sys.stderr)
            return 2
        results[name] = result
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{n}": m for w, r in results.items()
                             for n, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
