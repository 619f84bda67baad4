"""pulsom benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train-seq --seed 1 --seconds 25 --trace 0

Run from the root of a pulsom source tree.  The workload's inputs are
generated from --seed before timing starts.  Then, for --seconds, the
workload's CLI pipeline runs again and again, each time in a fresh Python
process (closed loop: one client, one command at a time, BLAS threads
pinned to 1).  Every repetition's outputs are checked, and repeats of one
seed must produce identical bytes.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics (medians over the repetitions); with --trace 1,
untraced and traced repetitions alternate and it holds the per-layer
metrics.  --workload all runs every workload in turn.  The exit code is 0
only if every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_frames_per_s": ("1/s", "higher"),
    "eval_frames_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "avg_rate_pct": ("%", "higher"),
}

# Seconds that worker.host_kernel takes on the reference host (the 2-vCPU
# Xeon of BENCH_0.json, at its typical speed).  Every time metric is scaled
# by KERNEL_REF_S over the kernel time measured next to it; see README.md.
KERNEL_REF_S = 0.0225

MIN_REPS = 3
WORKER_TIMEOUT_S = 150
# A run must end within 180 s; no repetition starts that would end after this.
RUN_LIMIT_S = 165


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def host_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _lines(path: Path) -> list[str] | None:
    try:
        return [line for line in path.read_text().splitlines() if line.strip()]
    except OSError:
        return None


def report_totals(outdir: Path) -> tuple[int | None, float | None, int | None]:
    """(sum of report.csv totals, mean of its rates, sum of confusion.csv counts)."""
    report, confusion = _lines(outdir / "report.csv"), _lines(outdir / "confusion.csv")
    try:
        rows = [line.split(",") for line in report[1:]]
        total = sum(int(r[2]) for r in rows)
        rate = statistics.fmean(float(r[3]) for r in rows)
        confused = sum(int(line.rsplit(",", 1)[1]) for line in confusion[1:])
    except (TypeError, ValueError, IndexError, statistics.StatisticsError):
        return None, None, None
    return total, rate, confused


def model_header_ok(outdir: Path, step: dict) -> bool:
    lines = _lines(outdir / "model.txt") or [""]
    head = lines[0].split()
    lattice = str(step["lattice"])
    return (head[:3] == ["PULSOM1", lattice, lattice]
            and f"model {step['model']}" in lines)


def check_rep(workdir: Path, plan: dict, rep: dict) -> tuple[list, dict, list]:
    """Checks of one repetition's outputs: (name, passed) pairs, the file
    digests, and the average rate of each eval report."""
    checks, digests, rates = [], {}, []
    for step, res in zip(plan["steps"], rep["steps"]):
        label = f"{step['argv'][0]} -> {step['outdir']}"
        out = workdir / step["outdir"]
        checks.append((f"{label}: exit code {res['rc']}", res["rc"] == 0))
        if step["kind"] == "train":
            checks.append((f"{label}: model header", model_header_ok(out, step)))
            log = _lines(out / "training-log.csv") or [""]
            checks.append((f"{label}: one log row per epoch", len(log) - 1 == step["epochs"]))
            files = ["model.txt", "training-log.csv"]
        elif step["kind"] == "eval":
            total, rate, confused = report_totals(out)
            checks.append((f"{label}: report totals {total} == test rows {step['test_rows']}",
                           total == step["test_rows"]))
            checks.append((f"{label}: confusion totals {confused} == test rows",
                           confused == step["test_rows"]))
            rates.append(rate)
            files = ["report.csv", "confusion.csv"]
        else:
            rows = len(_lines(out / "dataset.csv") or [""]) - 1
            frames = len(_lines(out / "frames.csv") or [""]) - 1
            checks.append((f"{label}: dataset rows {rows} == segments {step['segments']}",
                           rows == step["segments"]))
            checks.append((f"{label}: frame rows {frames} == {step['frame_rows']}",
                           frames == step["frame_rows"]))
            files = ["dataset.csv", "frames.csv"]
        for name in files:
            digests[f"{step['outdir']}/{name}"] = sha256(out / name)
    return checks, digests, rates


def scale_to_reference(rep: dict) -> None:
    """Add the repetition's times scaled to the reference host speed.

    A step's factor is KERNEL_REF_S over the median of three kernel times:
    the one just before the step, the one just after it, and the
    repetition's median, so that one disturbed kernel sample cannot swing
    it.  Set-up takes the first step's factor."""
    k = rep["kernel_s"]
    m = median(k)
    factors = [KERNEL_REF_S / median([k[i], k[i + 1], m]) for i in range(len(rep["steps"]))]
    rep["wall_s"] = sum(s["seconds"] for s in rep["steps"])
    rep["scaled_steps_s"] = [s["seconds"] * f for s, f in zip(rep["steps"], factors)]
    rep["scaled_setup_s"] = rep["setup_s"] * factors[0]
    rep["scaled_wall_s"] = sum(rep["scaled_steps_s"])
    rep["speed"] = KERNEL_REF_S / m


def end_to_end(plan: dict, reps: list) -> dict:
    """End-to-end metrics: medians over the given repetitions, of times
    scaled to the reference host speed.

    A throughput divides the frames of one kind of step by the summed
    median times of those steps, so that a slow spell of the host during one
    step of one repetition does not move it."""
    step_s = [median([r["scaled_steps_s"][i] for r in reps])
              for i in range(len(plan["steps"]))]

    def throughput(kind):
        idx = [i for i, s in enumerate(plan["steps"]) if s["kind"] == kind]
        return sum(plan["steps"][i]["frames"] for i in idx) / sum(step_s[i] for i in idx)

    values = {
        "setup_s": median([r["scaled_setup_s"] for r in reps]),
        "wall_s": median([r["scaled_wall_s"] for r in reps]),
        "train_frames_per_s": throughput("train"),
        "eval_frames_per_s": throughput("eval"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "avg_rate_pct": median([statistics.fmean(r["rates"]) for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def stage_shares(plan: dict, rep: dict) -> dict:
    shares = {}
    for step, res in zip(plan["steps"], rep["steps"]):
        shares[step["kind"]] = shares.get(step["kind"], 0.0) + res["seconds"] / rep["wall_s"]
    return shares


def run_worker(workdir: Path, env: dict, spans: Path | None) -> dict | None:
    out = workdir / "rep-result.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "plan.json", out.name]
    if spans is not None:
        argv.append(str(spans))
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not out.is_file():
        return None
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool, t_process: float,
                 host: dict) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = WORKLOADS[name](workdir, seed)
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])

    checks, reps, first_digests = [], [], None
    t_start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        t_rep = time.monotonic()
        rep = run_worker(workdir, env, workdir / "spans.npz" if traced else None)
        longest = max(longest, time.monotonic() - t_rep)
        index = len(reps) + 1
        if rep is None:
            checks.append((f"repetition {index}: worker finished", False))
            break
        scale_to_reference(rep)
        rep_checks, digests, rates = check_rep(workdir, plan, rep)
        checks += rep_checks
        if first_digests is None:
            first_digests = digests
        else:
            checks += [(f"repetition {index}: {f} bytes equal repetition 1",
                        digests[f] is not None and digests[f] == first_digests[f])
                       for f in first_digests]
        rep.update(traced=traced, shares=stage_shares(plan, rep), rates=rates,
                   ok=all(ok for _, ok in rep_checks))
        reps.append(rep)
        # Stop where the measured time comes closest to --seconds.
        now = time.monotonic()
        typical = (now - t_start) / len(reps)
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if (enough and now - t_start + typical / 2 >= seconds) \
                or now - t_process + longest > RUN_LIMIT_S:
            break

    plain = [r for r in reps if not r["traced"] and r["ok"]]
    failed = sum(not ok for _, ok in checks)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host, "repetitions": len(reps), "checks_failed":
              [c for c, ok in checks if not ok], "attempted": len(checks), "failed": failed,
              "digests": first_digests, "reps": reps}

    metrics = {}
    if trace:
        from layers import layer_metrics, scaled
        traced = [r for r in reps if r["traced"]]
        overhead = None
        if traced and plain:
            overhead = (median([r["scaled_wall_s"] for r in traced])
                        / median([r["scaled_wall_s"] for r in plain]) - 1.0)
        metrics = layer_metrics([scaled(r["layers"], r["speed"]) for r in traced], overhead)
    elif plain:
        metrics = end_to_end(plan, plain)
    result["metrics"] = metrics
    line = {"correct": failed == 0 and bool(metrics), "attempted": len(checks),
            "failed": failed, "metrics": metrics}
    return result, line


def print_summary(result: dict, line: dict) -> None:
    host = result["host"]
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"repetitions={result['repetitions']}")
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']} "
          f"threads={','.join(f'{k}={v}' for k, v in host['blas_threads'].items())} "
          f"commit={host['git_commit']}")
    shares = [r["shares"] for r in result["reps"] if not r["traced"]]
    if shares:
        print("stage share of wall_s: " + ", ".join(
            f"{k} {median([s.get(k, 0.0) for s in shares]):.3f}" for k in shares[0]))
    plain = [r for r in result["reps"] if not r["traced"]]
    if plain:
        print(f"host speed (reference kernel time / measured): "
              f"{median([r['speed'] for r in plain]):.4g}; unscaled medians: "
              f"setup_s {median([r['setup_s'] for r in plain]):.6g} s, "
              f"wall_s {median([r['wall_s'] for r in plain]):.6g} s")
    names = END_TO_END if not result["trace"] else {}
    for name, m in line["metrics"].items():
        better = names.get(name, ("", ""))[1]
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} = {shown} {m['unit']}" + (f" ({better} is better)" if better else ""))
    print(f"  failed_ops_ratio = {line['failed']}/{line['attempted']} = "
          f"{line['failed'] / max(line['attempted'], 1):.6g} "
          f"(base: CLI commands plus output checks, over all repetitions)")
    for name in result["checks_failed"]:
        print(f"  FAILED: {name}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    host = host_facts()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name in names:
        result, line = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    time.monotonic(), host)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1))
        print_summary(result, line)
        print(json.dumps(line), flush=True)
        all_ok = all_ok and line["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    if not (SRC / "pulsom" / "cli.py").is_file():
        print(f"perfbench: no pulsom sources at {SRC}; run from a pulsom source tree",
              file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.exit(main())
