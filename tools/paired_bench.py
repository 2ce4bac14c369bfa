#!/usr/bin/env python3
"""Compare the working tree's end-to-end benchmark metrics with a revision's.

    python tools/paired_bench.py REV --workload W [--pairs 10] [--seconds 30] [--seed 1]

REV (any git revision) is exported with ``git archive`` into a temporary
directory, as ``tools/same_output.py`` does. Each pair runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` once in
each tree, each tree with its own ``perfbench/`` and ``src/``; pair ``i``
uses seed ``--seed + i``, and the side that runs first alternates from
pair to pair. For every end-to-end metric in ``BENCHMARK.json`` the script
prints each side's median and quartiles, the change of the median, the
pairs the working tree won (a tie counts for neither side) and whether the
medians differ by more than the distance between REV's quartiles. The
failed-command counts of both sides close the report.

Exit status: 0 when every run finished, 1 when a run failed or reported
failed commands, 2 when REV cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_output import ROOT, export


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` result object, or ``{"error": ...}``."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tree,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": (done.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics: list[dict], theirs: list[dict], ours: list[dict]) -> list[str]:
    lines = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in theirs]
        b = [r["metrics"][name]["value"] for r in ours]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        change = (b_med - a_med) / a_med * 100 if a_med else float("nan")
        beyond = abs(b_med - a_med) > a_q3 - a_q1
        lines.append(
            f"{name} ({metric['unit']}, {better} is better): "
            f"REV {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]  "
            f"here {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]  "
            f"median {change:+.1f}%  wins {wins}/{len(a)}  "
            f"beyond REV IQR {'yes' if beyond else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    theirs: list[dict] = []
    ours: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(args.rev, Path(tmp))
        except subprocess.CalledProcessError:
            print(f"error: cannot export revision {args.rev!r}", file=sys.stderr)
            return 2
        sides = [("REV", Path(tmp) / "tree", theirs), ("here", ROOT, ours)]
        for i in range(args.pairs):
            seed = args.seed + i
            for label, tree, results in sides if i % 2 == 0 else sides[::-1]:
                result = run_once(tree, args.workload, seed, args.seconds)
                if "error" in result:
                    print(f"error: {label} seed {seed}: {result['error']}", file=sys.stderr)
                    return 1
                results.append(result)
                value = result["metrics"]["words_per_s"]["value"]
                print(f"pair {i + 1} seed {seed} {label}: words_per_s {value:.1f}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}, REV {args.rev}")
    for line in report(metrics, theirs, ours):
        print(line)
    failed = [sum(r["failed"] for r in side) for side in (theirs, ours)]
    attempted = [sum(r["attempted"] for r in side) for side in (theirs, ours)]
    print(f"failed commands: REV {failed[0]}/{attempted[0]}, here {failed[1]}/{attempted[1]}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
