"""Summarize benchmark result files: median, quartiles and spread per metric.

    python3 bench/summarize.py [RESULT.json ...] [--write POINT.json --label TAG]

With no files it reads bench/out/result-*.json. For every workload and metric
it prints the median over runs, the quartiles, and the spread: the distance
between the quartiles as a share of the median. A spread of an end-to-end
metric that reaches a third of its bound in BENCHMARK.json is marked. With
--write it saves the summary as one point of the benchmark's trajectory.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, help="save the summary to this file")
    parser.add_argument("--label", default="", help="label stored with --write")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in
              json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    files = args.results or sorted((BENCH_DIR / "out").glob("result-*.json"))
    runs = [json.loads(path.read_text()) for path in files]
    if not runs:
        print("no result files", file=sys.stderr)
        return 2

    point = {"label": args.label, "env": runs[0]["env"], "workloads": {}}
    steady = True
    for workload in sorted({r["workload"] for r in runs}):
        entry = point["workloads"].setdefault(workload, {})
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            group = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not group:
                continue
            entry[section] = {}
            seeds = sorted(r["seed"] for r in group)
            print(f"{workload} {section}: {len(group)} runs, seeds {seeds}, "
                  f"{sum(r['failed'] for r in group)} failed of "
                  f"{sum(r['attempted'] for r in group)} cases")
            for name, metric in group[0]["metrics"].items():
                stats = summarize([r["metrics"][name]["value"] for r in group])
                stats["unit"] = metric["unit"]
                entry[section][name] = stats
                mark = ""
                bound = bounds.get(name)
                if bound is not None and stats["spread"] is not None and name != "setup_s":
                    if stats["spread"] >= bound / 3:
                        mark, steady = "  <- spread >= bound/3", False
                spread = "-" if stats["spread"] is None else f"{stats['spread']:.4f}"
                print(f"  {name:36s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                      f"q3 {stats['q3']:<12.6g} spread {spread} {metric['unit']}{mark}")
    if args.write:
        args.write.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
