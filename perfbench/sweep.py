"""Run the benchmark on every workload over several seeds.

Usage::

    python3 perfbench/sweep.py [--workload all|NAME[,NAME...]] [--seeds 1-10]
        [--seconds N]

Makes one ``run.py --trace 0`` run per workload and seed, printing each
run's end-to-end metrics as it ends; then, per workload, each metric by
name with its unit: the median of the runs' values, their quartiles
(``statistics.quantiles(values, n=4)``), the spread — quartile distance
over median — and the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(workload: str, seeds: list[int], seconds: int,
          metrics: list[dict]) -> dict[str, list[float]] | None:
    """Per-metric values of one run per seed; None if a run failed."""
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                              text=True)
        result = (json.loads(proc.stdout.strip().splitlines()[-1])
                  if proc.returncode == 0 else {})
        if not result.get("correct"):
            print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n"
                  f"{proc.stderr}", file=sys.stderr)
            return None
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = run.load_spec()
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    for name in names:
        values = sweep(name, seeds, seconds, spec["end_to_end"])
        if values is None:
            return 1
        run.report(f"{name}: {len(seeds)} runs, one per seed (medians; "
                   "quartiles over the runs)", spec["end_to_end"], values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
