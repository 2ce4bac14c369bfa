"""Command-line driver: shape, justify, render, fontlint.

Artifacts (layout JSON, SVG) go to stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 font problem, 2 text or layout-document problem,
3 unjustifiable paragraph, 4 lint findings of error severity.

Each ``main`` call does its work once: it builds only the parser of the
subcommand it runs, loads the font once, and within ``shape`` and
``justify`` shapes, sites and marks each distinct word of the paragraph
once (a word repeats when ``decompose`` yields it from the same
clusters). Those memos are locals of the call, so nothing outlives it and
a second call starts from nothing.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys

from . import layout as layout_mod
from . import svg as svg_mod
from .diacritics import at_word, mark_word
from .errors import (
    Diagnostic,
    FontError,
    LayoutError,
    QalamError,
    Severity,
    TextError,
)
from .fontmodel import FontDescription, lint_font, load_font
from .justify import (
    INF,
    MAX_LINE_PENALTY,
    MIN_LINE_PENALTY,
    JustifyParams,
    break_greedy,
    break_optimum,
)
from .shaper import shape_words
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


def _gap_epsilon(value: str) -> int:
    """Parse ``--gap-epsilon``: a non-negative integer."""
    try:
        epsilon = int(value)
    except ValueError:
        epsilon = -1
    if epsilon < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return epsilon


def _line_penalty(value: str) -> int:
    """Parse ``--line-penalty``: an integer small enough that no line's
    demerits saturate at ``INF``."""
    try:
        penalty = int(value)
    except ValueError:
        penalty = None
    if penalty is None or not MIN_LINE_PENALTY <= penalty <= MAX_LINE_PENALTY:
        raise argparse.ArgumentTypeError(
            f"expected an integer from {MIN_LINE_PENALTY} to {MAX_LINE_PENALTY}, "
            f"got {value!r}"
        )
    return penalty


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep argparse's message.

    ``error`` prints usage and the message to stderr and exits 2, as
    argparse does; the ``SystemExit`` it raises carries the message as
    ``usage_error`` so that ``main`` can also report it on stdout.
    """

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as exc:
            exc.usage_error = message
            raise


def _add_font(p: argparse.ArgumentParser) -> None:
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


def _add_text(p: argparse.ArgumentParser) -> None:
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
        type=_gap_epsilon,
        default=10,
        help="minimum clearance between neighbouring marks, font units: "
        "a non-negative integer",
    )


def _add_shape(sub) -> None:
    shape = sub.add_parser("shape", help="shape text and place marks")
    _add_font(shape)
    _add_text(shape)


def _add_justify(sub) -> None:
    justify = sub.add_parser("justify", help="break and justify a paragraph")
    _add_font(justify)
    _add_text(justify)
    justify.add_argument("--width", type=int, required=True, help="measure in font units")
    justify.add_argument("--algorithm", choices=("greedy", "optimum"), default="optimum")
    justify.add_argument("--line-penalty", type=_line_penalty, default=10)
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


def _add_render(sub) -> None:
    render = sub.add_parser("render", help="render a layout document to SVG")
    _add_font(render)
    render.add_argument(
        "--input", default="-", help="layout JSON path, or - for stdin (default)"
    )


def _add_fontlint(sub) -> None:
    fontlint = sub.add_parser("fontlint", help="check a font description")
    _add_font(fontlint)


#: Each subcommand and what registers its parser, in the order of help.
_SUBCOMMANDS = {
    "shape": _add_shape,
    "justify": _add_justify,
    "render": _add_render,
    "fontlint": _add_fontlint,
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser for a command line whose first word is ``command``.

    When ``command`` names a subcommand, only that subcommand's parser is
    built, which is all such a command line can reach; the subcommand list
    in usage lines still names all four. Otherwise (no arguments, ``-h``, an
    unknown word) the whole tree is built.

    The terminal width is read once here, where argparse would read it
    again for every argument that a parser adds. It is the width argparse
    itself would use, so help and usage text do not change.
    """
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(
        prog="qalam",
        description="Arabic shaping and justification engine",
        formatter_class=formatter,
    )
    only = command in _SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if only else None,
        parser_class=functools.partial(_Parser, formatter_class=formatter),
    )
    for name in (command,) if only else _SUBCOMMANDS:
        _SUBCOMMANDS[name](sub)
    return parser


def _asks_for_json_errors(argv: list[str]) -> bool:
    """Whether ``argv`` selects ``--format json-errors``.

    Read from the raw words, because a usage error stops argparse before it
    has read every option. Like argparse, this takes ``--format VALUE``,
    ``--format=VALUE`` and the unambiguous abbreviations ``--for``,
    ``--form`` and ``--forma``; the last one given wins.
    """
    chosen = None
    for i, word in enumerate(argv):
        if word == "--":
            break
        name, eq, value = word.partition("=")
        if len(name) >= len("--for") and "--format".startswith(name):
            if eq:
                chosen = value
            elif i + 1 < len(argv):
                chosen = argv[i + 1]
    return chosen == "json-errors"


def _load_font_arg(args) -> FontDescription:
    if not args.font:
        raise FontError("no font given: pass --font or set QALAM_FONT_PATH")
    try:
        with open(args.font, "rb") as fh:
            return load_font(fh)
    except OSError as exc:
        raise FontError(f"cannot read font {args.font!r}: {exc}") from exc


def _read_utf8(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TextError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_text(args) -> str:
    if args.text is not None:
        text = args.text
    elif args.text_file is not None:
        text = _read_utf8(args.text_file, "text file")
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
    shaped = shape_words(decompose(text), font, features)
    words = []
    diagnostics = []
    marked_by_word = {}  # id(word in ``shaped``) -> mark_word's result
    for wi, word in enumerate(shaped):
        marked = marked_by_word.get(id(word))
        if marked is None:
            marked = marked_by_word[id(word)] = mark_word(word, font, args.gap_epsilon)
        words.append(marked[0])
        diagnostics.extend(at_word(marked[1], wi))
    doc = layout_mod.shaped_document(font, words, diagnostics)
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
    words = shape_words(decompose(text), font, features)
    breaker = break_optimum if args.algorithm == "optimum" else break_greedy
    result = breaker(words, args.width, font, params)
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
                f"width {c.width} badness {c.badness}",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_render(args) -> int:
    font = _load_font_arg(args)
    if args.input == "-":
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise TextError(f"cannot read layout from stdin: {exc}") from exc
    else:
        text = _read_utf8(args.input, "layout")
    doc = layout_mod.loads(text)
    sys.stdout.write(svg_mod.render_svg(doc, font))
    if doc["font_id"] != font.font_id:
        _print_diagnostics([
            Diagnostic(
                Severity.WARN,
                "font-mismatch",
                f"layout was set in font {doc['font_id']!r}, "
                f"rendered with {font.font_id!r}",
            )
        ])
    return EXIT_OK


def _cmd_fontlint(args) -> int:
    font = _load_font_arg(args)
    findings = lint_font(font)
    _print_diagnostics(findings)
    if any(d.severity is Severity.ERROR for d in findings):
        return EXIT_LINT
    return EXIT_OK


def _print_json_error(code: str, message: str) -> None:
    import json

    sys.stdout.write(
        json.dumps({"error": {"code": code, "message": message}}, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    """Run one command line and return its exit code; see the module
    docstring for what each call builds afresh."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        message = getattr(exc, "usage_error", None)
        if message is not None and _asks_for_json_errors(argv):
            _print_json_error("UsageError", message)
        raise
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
            _print_json_error(type(exc).__name__, str(exc))
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
