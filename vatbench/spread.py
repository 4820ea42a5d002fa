"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 vatbench/spread.py --workload synth-compare --seeds 0-9 --seconds 30

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median over the runs and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median. BENCHMARK.json bounds each metric; a steady benchmark keeps every
spread below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2])["details"]
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {json.dumps(line)}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        # ungated figures: the other per-workload metrics and wall-clock times
        for name, entry in details.get("samples", {}).items():
            if name not in result["metrics"]:
                values.setdefault(name, []).append(entry["median"])
        for name, entry in details.get("wall_samples", {}).items():
            values.setdefault(f"wall:{name}", []).append(entry["median"])
        if details.get("reference", {}).get("median_s"):
            values.setdefault("reference_burst_s", []).append(details["reference"]["median_s"])

    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  WIDE"
        print(f"{name:28s} {median:12.4f} {spread:8.4f} {bound!s:>6s}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
