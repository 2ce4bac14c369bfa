"""Command-line driver: shape, justify, render, fontlint.

Artifacts (layout JSON, SVG) go to stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 font problem, 2 text or layout-document problem,
3 unjustifiable paragraph, 4 lint findings of error severity.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import layout as layout_mod
from . import svg as svg_mod
from .diacritics import place_diacritics, with_marks
from .errors import FontError, LayoutError, QalamError, Severity, TextError
from .fontmodel import FontDescription, lint_font, load_font
from .justify import INF, GlueSpec, JustifyParams, break_greedy, break_optimum
from .shaper import shape_word
from .textmodel import decompose

EXIT_OK = 0
EXIT_FONT = 1
EXIT_TEXT = 2
EXIT_LAYOUT = 3
EXIT_LINT = 4

_POLICY_FLAG = {"single": "single_site", "spread": "spread", "off": "off"}


def _overlap_penalty(value: str) -> int:
    """Parse ``--overlap-penalty``: a non-negative integer, or ``inf``."""
    text = value.strip().lower()
    if text == "inf":
        return INF
    try:
        penalty = int(text)
    except ValueError:
        penalty = -1
    if penalty < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'inf', got {value!r}"
        )
    return penalty


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qalam",
        description="Arabic shaping and justification engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_font(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--font",
            default=os.environ.get("QALAM_FONT_PATH"),
            help="font description path (default: $QALAM_FONT_PATH)",
        )
        p.add_argument(
            "--format",
            choices=("text", "json-errors"),
            default="text",
            help="error reporting style",
        )

    def add_text(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--text", help="input text")
        group.add_argument("--text-file", help="read input text from a file")
        p.add_argument(
            "--features",
            default="",
            help="comma-separated optional features (e.g. liga,jalt,ss01)",
        )
        p.add_argument(
            "--gap-epsilon",
            type=int,
            default=10,
            help="minimum clearance between neighbouring marks, font units",
        )

    shape = sub.add_parser("shape", help="shape text and place marks")
    add_font(shape)
    add_text(shape)

    justify = sub.add_parser("justify", help="break and justify a paragraph")
    add_font(justify)
    add_text(justify)
    justify.add_argument("--width", type=int, required=True, help="measure in font units")
    justify.add_argument("--algorithm", choices=("greedy", "optimum"), default="optimum")
    justify.add_argument("--line-penalty", type=int, default=10)
    justify.add_argument(
        "--overlap-penalty",
        type=_overlap_penalty,
        default=3000,
        help="penalty for stacked elongations on consecutive lines: "
        "a non-negative integer, or 'inf'",
    )
    justify.add_argument("--variants", choices=("on", "off"), default="off")
    justify.add_argument(
        "--kashida-policy", choices=("single", "spread", "off"), default="single"
    )
    justify.add_argument("--stats", action="store_true", help="print totals to stderr")

    render = sub.add_parser("render", help="render a layout document to SVG")
    add_font(render)
    render.add_argument(
        "--input", default="-", help="layout JSON path, or - for stdin (default)"
    )

    fontlint = sub.add_parser("fontlint", help="check a font description")
    add_font(fontlint)

    return parser


def _load_font_arg(args) -> FontDescription:
    if not args.font:
        raise FontError("no font given: pass --font or set QALAM_FONT_PATH")
    try:
        with open(args.font, "rb") as fh:
            return load_font(fh)
    except OSError as exc:
        raise FontError(f"cannot read font {args.font!r}: {exc}") from exc


def _read_text(args) -> str:
    if args.text is not None:
        text = args.text
    elif args.text_file is not None:
        try:
            with open(args.text_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TextError(f"cannot read text file {args.text_file!r}: {exc}") from exc
    else:
        raise TextError("no input: pass --text or --text-file")
    # Line and tab breaks in input act as word separators.
    return text.replace("\r", " ").replace("\n", " ").replace("\t", " ").strip()


def _features(args) -> frozenset[str]:
    return frozenset(f for f in args.features.split(",") if f)


def _print_diagnostics(diagnostics, stream=None) -> None:
    stream = stream or sys.stderr
    for d in diagnostics:
        loc = ",".join(str(i) for i in d.location)
        suffix = f" @{loc}" if loc else ""
        print(f"{d.severity.value}: {d.code}: {d.message}{suffix}", file=stream)


def _cmd_shape(args) -> int:
    font = _load_font_arg(args)
    text = _read_text(args)
    features = _features(args)
    clusters_per_word = decompose(text)
    words = []
    marks_per_word = []
    diagnostics = []
    for wi, clusters in enumerate(clusters_per_word):
        word = shape_word(clusters, font, features)
        marks, diags = place_diacritics(word, font, gap_epsilon=args.gap_epsilon)
        words.append(with_marks(word, marks, font))
        marks_per_word.append(marks)
        diagnostics.extend(
            d.__class__(d.severity, d.code, d.message, (wi, *d.location)) for d in diags
        )
    doc = layout_mod.shaped_document(font, words, marks_per_word, diagnostics)
    sys.stdout.write(layout_mod.dumps(doc))
    _print_diagnostics(diagnostics)
    return EXIT_OK


def _cmd_justify(args) -> int:
    font = _load_font_arg(args)
    text = _read_text(args)
    features = _features(args)
    if args.width <= 0:
        raise LayoutError(f"measure must be positive, got {args.width}")
    params = JustifyParams(
        line_penalty=args.line_penalty,
        overlap_penalty=args.overlap_penalty,
        variants=args.variants == "on",
        kashida_policy=_POLICY_FLAG[args.kashida_policy],
        gap_epsilon=args.gap_epsilon,
    )
    clusters_per_word = decompose(text)
    words = [shape_word(clusters, font, features) for clusters in clusters_per_word]
    glue = GlueSpec.from_defaults(font.glue)
    breaker = break_optimum if args.algorithm == "optimum" else break_greedy
    result = breaker(words, args.width, glue, font, params)
    doc = layout_mod.justified_document(font, result)
    sys.stdout.write(layout_mod.dumps(doc))
    _print_diagnostics(result.diagnostics)
    if args.stats:
        print(f"algorithm: {args.algorithm}", file=sys.stderr)
        print(f"lines: {len(result.lines)}", file=sys.stderr)
        print(f"total_demerits: {result.total_demerits}", file=sys.stderr)
        for li, line in enumerate(result.lines):
            c = line.candidate
            print(
                f"line {li}: words {c.word_range[0]}..{c.word_range[1]} "
                f"width {line.width} badness {c.badness}",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_render(args) -> int:
    font = _load_font_arg(args)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TextError(f"cannot read layout {args.input!r}: {exc}") from exc
    doc = layout_mod.loads(text)
    sys.stdout.write(svg_mod.render_svg(doc, font))
    return EXIT_OK


def _cmd_fontlint(args) -> int:
    font = _load_font_arg(args)
    findings = lint_font(font)
    _print_diagnostics(findings)
    if any(d.severity is Severity.ERROR for d in findings):
        return EXIT_LINT
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "shape": _cmd_shape,
        "justify": _cmd_justify,
        "render": _cmd_render,
        "fontlint": _cmd_fontlint,
    }
    try:
        return handlers[args.command](args)
    except QalamError as exc:
        if getattr(args, "format", "text") == "json-errors":
            import json

            sys.stdout.write(
                json.dumps(
                    {"error": {"code": type(exc).__name__, "message": str(exc)}},
                    sort_keys=True,
                )
                + "\n"
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, FontError):
            return EXIT_FONT
        if isinstance(exc, TextError):
            return EXIT_TEXT
        if isinstance(exc, LayoutError):
            return EXIT_LAYOUT
        return EXIT_TEXT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
