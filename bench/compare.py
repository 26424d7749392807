"""Run the benchmark over several seeds and summarise, or compare two trees.

    python3 bench/compare.py --workload dispute --seeds 1-10 --seconds 20
    python3 bench/compare.py --workload maintain --seeds 1-10 --tree ../parent --tree .

Each tree is the root of an lcsim source checkout holding this benchmark;
every run is `python3 <tree>/bench/run.py` with that tree as working
directory. With two trees the runs alternate which tree goes first. For
each metric it prints the median, the quartiles, the spread (quartile
distance over the median, as `statistics.quantiles(values, n=4)` gives
the quartiles) and, for two trees, how many seed pairs the second tree
won and whether its median is within the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stdout[-2000:] + proc.stderr[-2000:]
        raise SystemExit(f"{tree} seed {seed}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tree", action="append", type=Path)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent.parent
    spec = json.loads((here / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    trees = [t.resolve() for t in (args.tree or [here])]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[Path, list[dict]] = {t: [] for t in trees}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = trees if i % 2 == 0 else trees[::-1]
        for tree in order:
            results[tree].append(run_once(tree, args.workload, seed, seconds, args.trace))

    for tree, runs in results.items():
        shares = sorted({(r["failed"] / r["attempted"]) for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{tree}: {len(runs)} runs, correct {correct}, failed shares {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            bound = bounds.get(name, {}).get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(
                f"  {name:40s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                f"  spread {spread:7.2%}{flag}"
            )
            print("      runs: " + " ".join(f"{v:.5g}" for v in values))

    if len(trees) == 2:
        parent, change = (results[t] for t in trees)
        print(f"{trees[1]} against {trees[0]}:")
        for name, m in bounds.items():
            if name not in parent[0]["metrics"]:
                continue
            sign = 1 if m["better"] == "higher" else -1
            a = [r["metrics"][name]["value"] for r in parent]
            b = [r["metrics"][name]["value"] for r in change]
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            ma, mb = statistics.median(a), statistics.median(b)
            worse = sign * (ma - mb) / ma if ma else 0.0
            verdict = "regression" if worse > m["bound"] else "within bound"
            won = f"change won {wins}/{len(a)} pairs"
            print(f"  {name:40s} {ma:12.6g} -> {mb:12.6g}  {won}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
