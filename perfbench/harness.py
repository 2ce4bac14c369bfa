"""Workloads, the in-process command chain, and the output checks.

The benchmark is a closed-loop client with one caller: it sends the next
paragraph only after the previous command chain has returned. Each command
goes through ``qalam.cli.main(argv)``, the same path as the ``qalam``
console script, with stdout and stderr captured in memory.
"""

from __future__ import annotations

import io
import re
import sys
import traceback
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from qalam import cli, layout
from qalam.errors import QalamError

import gen

FONT = (
    Path(__file__).resolve().parent.parent
    / "src" / "qalam" / "data" / "chawki-demo.qalam-font.json"
)
FEATURES = ("--features", "liga,jalt")
SVG_NS = "{http://www.w3.org/2000/svg}"
_UNDERFULL_WIDTH = re.compile(r"reaches only (-?\d+) of")


@dataclass(frozen=True)
class Workload:
    name: str
    paragraphs: Callable[[int], Iterator[str]]
    #: Command argv without ``--font``; the first command gets the
    #: paragraph as ``--text``, each later one reads the previous stdout.
    commands: tuple[tuple[str, ...], ...]
    #: Paragraphs in the traced run, sized for ~10 s untraced at the
    #: commit that defined the benchmark; fixed so counts repeat exactly.
    trace_paragraphs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shape-fresh",
            paragraphs=gen.fresh_paragraphs,
            commands=(("shape", *FEATURES),),
            trace_paragraphs=150,
        ),
        Workload(
            name="optimum-wide",
            # 24 words, not 120: about the largest size at which a 30 s run
            # on a 2-core Xeon still holds 100 paragraphs, 10 of them beyond
            # p90, when the machine runs slow.
            paragraphs=lambda seed: gen.zipf_paragraphs(seed, words=24),
            commands=(
                ("justify", *FEATURES, "--algorithm", "optimum", "--variants", "on",
                 "--width", "16000"),
            ),
            trace_paragraphs=60,
        ),
        Workload(
            name="greedy-render",
            paragraphs=gen.zipf_paragraphs,
            commands=(
                ("justify", *FEATURES, "--algorithm", "greedy", "--width", "4000"),
                ("render",),
            ),
            trace_paragraphs=150,
        ),
    )
}


@dataclass(frozen=True)
class CommandResult:
    command: str
    code: int
    stdout: str
    stderr: str


def run_command(argv: list[str], stdin_text: str = "") -> CommandResult:
    """Run one CLI command in-process with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an engine crash is a failed command, not a failed run
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved_stdin
    return CommandResult(argv[0], code, out.getvalue(), err.getvalue())


def run_chain(workload: Workload, text: str) -> tuple[list[CommandResult], float]:
    """Run a workload's command chain on one paragraph; returns its wall time.

    A command that fails ends the chain: the commands after it are not
    attempted.
    """
    results: list[CommandResult] = []
    stdin_text = ""
    start = perf_counter()
    for i, (command, *args) in enumerate(workload.commands):
        argv = [command, "--font", str(FONT), *args]
        if i == 0:
            argv += ["--text", text]
        result = run_command(argv, stdin_text)
        results.append(result)
        if result.code != 0:
            break
        stdin_text = result.stdout
    return results, perf_counter() - start


def check_layout(text: str, justified: bool) -> list[str]:
    """Problems with a layout document; empty when it is correct."""
    try:
        doc = layout.loads(text)
    except QalamError as exc:
        return [f"layout rejected: {exc}"]
    problems = []
    for li, line in enumerate(doc["lines"]):
        # A line ends where its last base glyph, stretched, ends; this
        # catches stretching that the reported width does not show.
        extent = max(
            (g["x"] + g["advance"] + g["elongation"] for g in line["glyphs"]), default=0
        )
        if extent != line["width"]:
            problems.append(f"line {li} has glyphs to {extent}, width {line['width']}")
    if not justified:
        return problems
    measure = doc["measure"]
    underfull = Counter(
        int(m.group(1))
        for d in doc["diagnostics"]
        if d.get("code") == "underfull-line"
        and (m := _UNDERFULL_WIDTH.search(d.get("message", "")))
    )
    for li, line in enumerate(doc["lines"][:-1]):
        width = line.get("width")
        if width == measure:
            continue
        if underfull[width]:
            underfull[width] -= 1
        else:
            problems.append(f"line {li} has width {width}, measure {measure}, no underfull-line")
    return problems


def check_svg(svg: str, lines: int) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    baselines = sum(1 for e in root.iter(f"{SVG_NS}line") if e.get("class") == "baseline")
    if baselines != lines:
        return [f"SVG has {baselines} baselines for {lines} lines"]
    return []


def check_chain(results: list[CommandResult]) -> list[list[str]]:
    """Problems per command run; a command with any problem has failed.

    The checks read only the captured streams, never the objects the
    timed code built.
    """
    report = []
    previous = ""
    for result in results:
        problems = []
        if result.code != 0:
            problems.append(f"exit code {result.code}")
        if "Traceback" in result.stderr:
            problems.append("traceback on stderr")
        if not problems:
            if result.command == "shape":
                problems += check_layout(result.stdout, justified=False)
            elif result.command == "justify":
                problems += check_layout(result.stdout, justified=True)
            elif result.command == "render":
                try:
                    lines = len(layout.loads(previous)["lines"])
                except QalamError as exc:
                    problems.append(f"render input rejected: {exc}")
                else:
                    problems += check_svg(result.stdout, lines)
        report.append(problems)
        previous = result.stdout
    return report
