#!/usr/bin/env python3
"""Compare the working tree's end-to-end benchmark metrics with a revision's.

    python tools/paired_bench.py REV --workload W [--pairs 10] [--seconds 30] [--seed 1]
                                 [--json FILE]

REV (any git revision) is exported with ``git archive`` into a temporary
directory, as ``tools/same_output.py`` does. Each pair runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` once in
each tree, each tree with its own ``perfbench/`` and ``src/``; pair ``i``
uses seed ``--seed + i``, and the side that runs first alternates from
pair to pair. For every end-to-end metric in ``BENCHMARK.json`` the script
prints each side's median and quartiles, the change of the median, the
pairs the working tree won (a tie counts for neither side) and whether the
medians differ by more than the distance between REV's quartiles. The
failed-command counts of both sides close the report. ``--json FILE``
also records the run in FILE, under ``workloads`` and the workload's name,
keeping what else FILE holds.

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


def compare(metrics: list[dict], theirs: list[dict], ours: list[dict]) -> list[dict]:
    """Per end-to-end metric: both sides' quartiles, the change of the
    median in percent (None when REV's median is 0), the pairs the working
    tree won, and whether the medians differ by more than REV's IQR."""
    rows = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in theirs]
        b = [r["metrics"][name]["value"] for r in ours]
        sign = 1 if better == "higher" else -1
        sides = {}
        for side, values in (("rev", a), ("here", b)):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        rev, here = sides["rev"], sides["here"]
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": better,
            **sides,
            "change_pct": (
                (here["median"] - rev["median"]) / rev["median"] * 100 if rev["median"] else None
            ),
            "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "beyond_rev_iqr": abs(here["median"] - rev["median"]) > rev["q3"] - rev["q1"],
        })
    return rows


def report(rows: list[dict], pairs: int) -> list[str]:
    lines = []
    for row in rows:
        rev, here = row["rev"], row["here"]
        change = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        lines.append(
            f"{row['name']} ({row['unit']}, {row['better']} is better): "
            f"REV {rev['median']:.4g} [{rev['q1']:.4g}, {rev['q3']:.4g}]  "
            f"here {here['median']:.4g} [{here['q1']:.4g}, {here['q3']:.4g}]  "
            f"median {change}  wins {row['wins']}/{pairs}  "
            f"beyond REV IQR {'yes' if row['beyond_rev_iqr'] else 'no'}"
        )
    return lines


def write_json(path: Path, workload: str, record: dict) -> None:
    """Put ``record`` under ``workloads``/``workload`` in the JSON object at
    ``path``, which is created if missing."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc.setdefault("workloads", {})[workload] = record
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def commit_of(rev: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", type=Path, metavar="FILE", help="also record the run in FILE")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    theirs: list[dict] = []
    ours: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(args.rev, Path(tmp))
            rev_commit = commit_of(args.rev)
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
    rows = compare(metrics, theirs, ours)
    for line in report(rows, args.pairs):
        print(line)
    failed = [sum(r["failed"] for r in side) for side in (theirs, ours)]
    attempted = [sum(r["attempted"] for r in side) for side in (theirs, ours)]
    print(f"failed commands: REV {failed[0]}/{attempted[0]}, here {failed[1]}/{attempted[1]}")
    if args.json:
        write_json(args.json, args.workload, {
            "rev": args.rev,
            "rev_commit": rev_commit,
            "here_commit": commit_of("HEAD"),
            # Whether the working tree's src/ or perfbench/ differ from it.
            "here_modified": subprocess.run(
                ["git", "-C", str(ROOT), "diff", "--quiet", "HEAD", "--", "src", "perfbench"]
            ).returncode != 0,
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "pairs": args.pairs,
            "seconds": args.seconds,
            "metrics": rows,
            "failed": {"rev": failed[0], "here": failed[1]},
            "attempted": {"rev": attempted[0], "here": attempted[1]},
        })
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
