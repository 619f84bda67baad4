"""Gather benchmark result files into one BENCH file.

    python3 perfbench/collect.py perfbench/BENCH_0.json

Reads every perfbench/work/results/*.json that run.py wrote.  For each
workload and end-to-end metric it records the runs' median and quartiles
across seeds; for each per-layer metric, the median across traced runs.  It
also keeps the output digests of every seed, and the host facts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "work" / "results"


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / out["median"])
    return out


def collect(results: list[dict]) -> dict:
    bench = {"host": results[0]["host"], "workloads": {}}
    for res in results:
        wl = bench["workloads"].setdefault(res["workload"], {
            "seeds": [], "seconds": res["seconds"], "end_to_end": {}, "per_layer": {},
            "digests": {}, "failed_checks": 0})
        wl["failed_checks"] += res["failed"]
        key = "per_layer" if res["trace"] else "end_to_end"
        if not res["trace"]:
            wl["seeds"].append(res["seed"])
            wl["digests"][str(res["seed"])] = res["digests"]
        for name, m in res["metrics"].items():
            wl[key].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for wl in bench["workloads"].values():
        for key in ("end_to_end", "per_layer"):
            for m in wl[key].values():
                values = m.pop("values")
                if any(v is None for v in values):
                    m["status"] = "missing"
                else:
                    m.update(spread(values))
    return bench


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not results:
        print(f"no result files in {RESULTS}", file=sys.stderr)
        return 1
    Path(argv[0]).write_text(json.dumps(collect(results), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
