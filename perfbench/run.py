"""qalam benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload optimum-wide --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's command chain on generated paragraphs
for ``--seconds`` seconds with nothing wrapped and reports the end-to-end
metrics. ``--trace 1`` runs a fixed set of paragraphs twice, untraced and
then traced, plus a tracemalloc pass over ``break_optimum``, and reports
the per-layer metrics. Metric names and units come from ``BENCHMARK.json``.
The last line of stdout is the result as one JSON object; the lines
before it are a readable report. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time set-up; the median is reported.
#: They are spread evenly over the run, so that the median sees the same
#: machine as the command chains, not only its first seconds.
SETUP_REPEATS = 31
#: ``peak_rss_mb`` is read after this many paragraphs (or at the end of a
#: shorter run), so that it covers the same inputs however fast the
#: engine is: the peak only grows with every paragraph processed.
RSS_PARAGRAPHS = 50
#: Paragraphs whose outputs go into ``output_sha256``.
SHA_PARAGRAPHS = 8
#: Paragraphs in the tracemalloc pass; it is slow, so only a few.
MEMORY_PARAGRAPHS = 5

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qalam.cli
with open(sys.argv[2], "rb") as fh:
    qalam.cli.load_font(fh)
print(time.perf_counter() - start)
"""


def setup_seconds(font: Path) -> float:
    """Import ``qalam.cli`` and load the font once, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(font)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


class Tally:
    """Commands attempted and failed, with the first few failures printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, results, report) -> None:
        self.attempted += len(results)
        for result, problems in zip(results, report):
            if problems:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {result.command}: {'; '.join(problems)}", file=sys.stderr)
                    print(result.stderr[-2000:], file=sys.stderr)


def _words_report(paragraphs: int, total: int, distinct: int) -> str:
    return (
        f"input: {paragraphs} paragraphs, {total} words, vocabulary {distinct} "
        f"distinct words, distinct-word ratio {distinct / max(total, 1):.4f}"
    )


def timed_run(workload, seed: int, seconds: int, units: dict[str, str]) -> tuple[Tally, dict]:
    import harness

    setups: list[float] = []
    paragraphs = workload.paragraphs(seed)
    tally = Tally()
    latencies: list[float] = []
    peak_rss_mb = 0.0
    words_done = words_total = 0
    vocabulary: set[str] = set()
    digest = hashlib.sha256()
    start = perf_counter()
    deadline = start + seconds
    while (now := perf_counter()) < deadline:
        if len(setups) * seconds <= (now - start) * SETUP_REPEATS:
            setups.append(setup_seconds(harness.FONT))
            # Set-up is not part of the timed chains: extend the run by it.
            paused = perf_counter() - now
            start += paused
            deadline += paused
            continue
        text = next(paragraphs)
        results, elapsed = harness.run_chain(workload, text)
        report = harness.check_chain(results)
        tally.add(results, report)
        latencies.append(elapsed)
        words = text.split()
        words_total += len(words)
        vocabulary.update(words)
        if not any(report) and len(results) == len(workload.commands):
            words_done += len(words)
        if len(latencies) <= SHA_PARAGRAPHS:
            for result in results:
                digest.update(result.stdout.encode())
        if len(latencies) <= RSS_PARAGRAPHS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    while len(setups) < SETUP_REPEATS:  # a last chain ran past the final slot
        setups.append(setup_seconds(harness.FONT))
    n = len(latencies)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "words_per_s": (words_done / sum(latencies), n),
        "cmd_ms_p50": (statistics.median(latencies) * 1e3, n),
        "cmd_ms_p90": (statistics.quantiles(latencies, n=10)[-1] * 1e3 if n > 1
                       else latencies[0] * 1e3, n),
        "peak_rss_mb": (peak_rss_mb, min(n, RSS_PARAGRAPHS)),
    }
    print(_words_report(n, words_total, len(vocabulary)))
    for name, (value, samples) in values.items():
        print(f"{name} {value:.4f} {units[name]} (n={samples})")
    print(f"fail_rate {tally.failed}/{tally.attempted} commands")
    print(f"output_sha256 {digest.hexdigest()} (first {min(n, SHA_PARAGRAPHS)} paragraphs)")
    return tally, {name: value for name, (value, _) in values.items()}


def _pass(workload, texts: list[str], tally: Tally, check: bool) -> tuple[list[list[str]], float]:
    """Run the chain on every text; the output checks run only if asked,
    so that their own calls into the engine are never traced."""
    import harness

    outputs, total = [], 0.0
    for text in texts:
        results, elapsed = harness.run_chain(workload, text)
        total += elapsed
        tally.add(results, harness.check_chain(results) if check else [[]] * len(results))
        outputs.append([r.stdout for r in results])
    return outputs, total


def traced_run(workload, seed: int) -> tuple[Tally, dict]:
    import tracer

    texts = list(itertools.islice(workload.paragraphs(seed), workload.trace_paragraphs))
    tally = Tally()
    untraced_outputs, untraced_s = _pass(workload, texts, tally, check=True)
    with tracer.traced() as trace:
        traced_outputs, traced_s = _pass(workload, texts, tally, check=False)
    # The traced pass is checked by comparison with the checked untraced one.
    for untraced, traced in zip(untraced_outputs, traced_outputs):
        if traced != untraced:
            tally.failed += 1
            print("FAILED: traced output differs from untraced output", file=sys.stderr)

    values = trace.metrics()
    peaks: list[int] = []
    if values["justify.break_optimum.calls"]:
        with tracer.break_optimum_peaks() as peaks:
            _pass(workload, texts[:MEMORY_PARAGRAPHS], tally, check=False)
    values["justify.break_optimum.peak_mb"] = max(peaks, default=0) / 2**20
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.accounted_ratio"] = trace.self_ns_total() / 1e9 / traced_s

    words = [w for text in texts for w in text.split()]
    print(_words_report(len(texts), len(words), len(set(words))))
    print(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    for name in sorted(values):
        print(f"{name} {values[name]:.4f}" if isinstance(values[name], float)
              else f"{name} {values[name]}")
    print(f"fail_rate {tally.failed}/{tally.attempted} commands")
    return tally, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qalam" / "cli.py").is_file():
        print(f"perfbench: no qalam sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import harness
    import qalam

    if Path(qalam.__file__).resolve().parent != SRC / "qalam":
        print(f"perfbench: imported qalam from {qalam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        tally, values = traced_run(workload, args.seed)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        tally, values = timed_run(
            workload, args.seed, args.seconds, {m["name"]: m["unit"] for m in wanted}
        )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
