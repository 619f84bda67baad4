"""One repetition of a workload plan, in a fresh interpreter.

Usage: python3 worker.py PLAN.json RESULT.json [SPANS.npz]

The current directory is the workload's work directory.  The worker times
set-up (importing pulsom.cli and loading every config of the plan), then
runs each plan step through pulsom.cli.main and times it.  Before the
first step and after every step it also times a fixed host-speed kernel,
so that the caller can scale each step's time to a reference host speed.
Given a spans path it first installs the tracer on the layers in
layers.py, and writes the spans there when the run ends.  It writes its
timings to RESULT.json; checking the outputs is left to the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

KERNEL_ITERS = 3000


def host_kernel(np) -> float:
    """Seconds taken by a fixed mix of small numpy calls and plain Python,
    the same kind of work as the program's hot loops.  It uses no pulsom
    code, so no change to the program moves it; only the host's speed does."""
    w = np.linspace(0.0, 1.0, 768).reshape(64, 12)
    x = np.linspace(0.0, 1.0, 12)
    acc = 0
    t = time.perf_counter()
    for i in range(KERNEL_ITERS):
        d = w - x * (i % 7)
        acc += int(np.einsum("ij,ij->i", d, d).argmin())
        acc += len(repr(i * 0.1).split("."))
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    plan_path, result_path, *spans = argv
    with open(plan_path) as f:
        plan = json.load(f)

    t0 = time.perf_counter()
    from pulsom import cli
    from pulsom.config import RunConfig
    tracer = None
    if spans:
        from layers import LAYERS, OBSERVERS
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("pulsom", LAYERS, OBSERVERS)
        tracer.run_id = -1
    for cfg in plan["configs"]:
        RunConfig.load(cfg)
    setup_s = time.perf_counter() - t0

    import numpy as np
    kernel_s = [host_kernel(np)]
    steps = []
    for i, step in enumerate(plan["steps"]):
        if tracer is not None:
            tracer.run_id = i
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(step["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        steps.append({"seconds": time.perf_counter() - t, "rc": rc})
        kernel_s.append(host_kernel(np))

    result = {
        "setup_s": setup_s,
        "steps": steps,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from layers import layer_values
        result["layers"] = layer_values(tracer)
        tracer.write(spans[0])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
