"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR

run.py starts this once per sample, so no sample sees another's module-level
state (porodiff keeps LU factors in a module-level cache). The last line of
stdout is one JSON object: the monotonic time of the first timed call, the
wall time of the timed call, ru_maxrss, the outputs and any check failures,
and the per-layer metrics when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def load_reference():
    try:
        with open(os.path.join(HERE, "reference.json")) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import porodiff
    if not os.path.abspath(porodiff.__file__).startswith(SRC + os.sep):
        sys.exit(f"porodiff imported from {porodiff.__file__}, not {SRC}")
    import numpy
    import scipy

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    try:
        import workloads
        prepare, check = workloads.WORKLOADS[args.workload]
        run = prepare(args.seed, args.workdir)
        first_call = time.monotonic()
        outputs = run()
        wall = time.monotonic() - first_call
    finally:
        if tracer is not None:
            tracer.restore()

    problems = []
    reference = None
    if args.seed == 0:
        reference = load_reference().get(args.workload)
        if reference is None:
            problems.append(f"no seed-0 reference values for {args.workload}")
    problems += check(outputs, args.seed, reference)
    result = {
        "first_call": first_call,
        "wall_s": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "outputs": outputs,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
