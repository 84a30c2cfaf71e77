"""Record the seed-0 reference outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload once at seed 0 and writes ``reference.json``. Run it only
on a commit whose results are trusted: seed-0 samples are checked against
these values at a relative tolerance of 1e-6.
"""

from __future__ import annotations

import json
import os
import time

from run import HERE, WORKLOADS, sample


def main():
    reference = {}
    for name in WORKLOADS:
        result, _ = sample(name, 0, False, time.monotonic() + 600)
        if result is None:
            raise SystemExit(f"{name}: the sample failed")
        reference[name] = result["outputs"]
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
