#!/usr/bin/env python3
"""Check that the working tree's CLI output is the same as a revision's.

    python tools/same_output.py REV [--seeds 1 2 3] [--paragraphs 2] [--words 20]

REV (any git revision: a commit, a branch, ``HEAD~1``) is exported with
``git archive`` into a temporary directory. Paragraphs come from
``perfbench/gen.py`` in the working tree: for each seed, ``--paragraphs``
from the fresh stream and as many from the Zipfian stream, ``--words``
words each. On every paragraph both trees run, each with its own bundled
font:

- ``shape``, with and without ``--features liga,jalt``;
- ``shape --features liga,jalt`` at ``--gap-epsilon 0`` and
  ``--gap-epsilon 200``;
- ``justify --features liga,jalt`` for greedy and optimum, width variants
  on and off, at widths 1200, 4000 and 16000;
- ``justify --features liga,jalt --algorithm optimum --variants on`` at
  the same widths with each of ``--kashida-policy spread``,
  ``--kashida-policy off``, ``--overlap-penalty 0`` and
  ``--overlap-penalty inf``;
- ``shape --features liga,jalt,ss01``, and ``justify --features
  liga,jalt,ss01 --algorithm optimum --variants on --width 4000``, so
  that the bundled font's ``ss01`` substitution runs too;
- ``justify --features liga,jalt --variants on --width 4000 --stats``,
  greedy and optimum, so that the per-line totals on stderr compare too;
- ``render`` of every layout that the commands above wrote.

One longer paragraph, ``LONG_WORDS`` words from the fresh stream of the
first seed, also runs ``justify --features liga,jalt --algorithm optimum
--variants on`` at widths 4000 and 16000 (``LONG_COMMANDS``), and
``render`` of both layouts. Its chains of breaker states run to dozens of
lines, where the short paragraphs set only a few, so deep tie-breaks are
compared too.

One fixed paragraph, ``REPEATS_TEXT``, runs ``shape`` and ``justify
--algorithm optimum --variants on --width 4000``, both with ``--features
liga,jalt`` (``REPEATS_COMMANDS``), and ``render`` of both layouts. It
repeats words among near-duplicates that differ only in tatweel count or
in the order of a letter's marks. A word memo that confuses two tatweel
counts shows as a difference; the order of a shadda and a vowel does not
change any output, so only ``tests/test_shaper.py`` sees that case.

The short paragraphs and the demo corpus also run ``shape`` and ``justify
--algorithm optimum --variants on --width 4000`` with every feature of the
rules test font, ``tests/data/rules-test.qalam-font.json``
(``RULES_COMMANDS``), and ``render`` of each layout with that font. That
font adds a rule of each kind the bundled font lacks. Both trees read the
working tree's copy of it, so a revision from before the file existed
still compares.

Before the paragraphs, each tree also runs a fixed list of command lines
(``CLI_LINES``): ``qalam -h`` and each ``<command> -h``, flag errors with
the default and the ``json-errors`` format, and ``fontlint`` on its
bundled font, and one command line per error exit (``_ERROR_EXITS``: a
missing font file, a character outside the repertoire, a word wider than
the measure, a malformed layout on stdin) with ``--format text`` and with
``--format json-errors``, and ``shape --text ب`` on each malformed font of
``MALFORMED_FONTS`` with ``--format text`` and with ``--format
json-errors``. A flag error with ``--format json-errors`` may differ only
by the one ``{"error": ...}`` line that such a tree prints on stdout, so
that a revision from before that line was added still compares equal.

Each malformed font is the working tree's bundled font with one field
broken, one per check of the font loader's field readers. The script
writes them into its temporary directory, so both trees read the same
files.

Each tree runs in its own Python subprocess, which imports only that
tree's ``src`` and calls ``qalam.cli.main`` once per command. The script
compares stdout, stderr and exit code command by command, prints the first
difference and exits 1; it exits 0 when every command matched, and 2 when
REV cannot be exported or either tree cannot run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from qalam.justify import MAX_LINE_PENALTY, MIN_LINE_PENALTY  # noqa: E402
FEATURES = ("--features", "liga,jalt")
#: Every optional feature of the bundled font, ``ss01`` included.
ALL_FEATURES = ("--features", "liga,jalt,ss01")
WIDTHS = ("1200", "4000", "16000")
#: Mark clearances other than the default 10, so that the collision nudge
#: is compared with no clearance and with a wide one.
GAP_EPSILONS = ("0", "200")
#: Breaker settings other than the defaults (``--kashida-policy single``,
#: ``--overlap-penalty 3000``), each run on its own.
BREAKER_OPTIONS = [
    ("--kashida-policy", "spread"),
    ("--kashida-policy", "off"),
    ("--overlap-penalty", "0"),
    ("--overlap-penalty", "inf"),
]
COMMANDS = (
    [("shape",), ("shape", *FEATURES)]
    + [("shape", *FEATURES, "--gap-epsilon", epsilon) for epsilon in GAP_EPSILONS]
    + [
        ("justify", *FEATURES, "--algorithm", algorithm, "--variants", variants, "--width", width)
        for algorithm in ("greedy", "optimum")
        for variants in ("off", "on")
        for width in WIDTHS
    ]
    + [
        ("justify", *FEATURES, "--algorithm", "optimum", "--variants", "on", "--width", width,
         *option)
        for option in BREAKER_OPTIONS
        for width in WIDTHS
    ]
    + [
        ("shape", *ALL_FEATURES),
        ("justify", *ALL_FEATURES, "--algorithm", "optimum", "--variants", "on", "--width", "4000"),
    ]
    + [
        ("justify", *FEATURES, "--algorithm", algorithm, "--variants", "on", "--width", "4000",
         "--stats")
        for algorithm in ("greedy", "optimum")
    ]
)

#: The rules test font, every feature it has, and what runs with it.
RULES_FONT = ROOT / "tests" / "data" / "rules-test.qalam-font.json"
RULES_FEATURES = ("--features", "liga,jalt,ss01,calt,ccmp,dist,kern,curs")
RULES_COMMANDS = [
    ("shape", *RULES_FEATURES),
    ("justify", *RULES_FEATURES, "--algorithm", "optimum", "--variants", "on", "--width", "4000"),
]
CORPUS = ROOT / "src" / "qalam" / "data" / "corpus.txt"

#: Words in the long paragraph, and what runs on it.
LONG_WORDS = 240
LONG_COMMANDS = [
    ("justify", *FEATURES, "--algorithm", "optimum", "--variants", "on", "--width", width)
    for width in ("4000", "16000")
]

#: Repeated words among near-duplicates: ``بسم`` with zero, one and two
#: tatweels, and beh with fatha and shadda typed in both orders.
REPEATS_TEXT = " ".join(
    ["\u0628\u0633\u0645", "\u0628\u0640\u0633\u0645", "\u0628\u0640\u0640\u0633\u0645",
     "\u0628\u064e\u0651", "\u0628\u0651\u064e", "\u0633\u064e\u0628\u0651\u064f"] * 3
)
REPEATS_COMMANDS = [
    ("shape", *FEATURES),
    ("justify", *FEATURES, "--algorithm", "optimum", "--variants", "on", "--width", "4000"),
]

_TEXT = ("--text", "\u0628")
_JSON_ERRORS = ("--format", "json-errors")
#: The integer flags, each on a command line that is complete but for its value.
_GAP, _LINE, _OVERLAP = _INTEGER_FLAGS = [
    ("shape", *_TEXT, "--gap-epsilon"),
    ("justify", *_TEXT, "--width", "4000", "--line-penalty"),
    ("justify", *_TEXT, "--width", "4000", "--overlap-penalty"),
]
#: Flag values at and past the edges of what each integer flag accepts.
_FLAG_ERRORS = [
    (*_GAP, "-1"),
    (*_LINE, "40000000"),
    (*_OVERLAP, "-5"),
    *[(*flag, value) for flag in _INTEGER_FLAGS for value in ("abc", "1.5", "")],
    (*_OVERLAP, "INF"),
    (*_OVERLAP, " inf "),
    (*_LINE, str(MIN_LINE_PENALTY - 1)),
    (*_LINE, str(MAX_LINE_PENALTY + 1)),
]
#: One command line per error exit, as (argv, stdin): a missing font file
#: (1), a character outside the repertoire (2), a word wider than the
#: measure (3) and a malformed layout on stdin (2).
_ERROR_EXITS = [
    (("shape", "--font", "no-such-dir/font.json", *_TEXT), ""),
    (("shape", "--font", "{font}", "--text", "a"), ""),
    (("justify", "--font", "{font}", "--text", "\u0628\u0633\u0645", "--width", "10"), ""),
    (("render", "--font", "{font}"), '{"schema": "qalam-layout/1"}'),
]

#: The bundled font, from the root of a tree.
BUNDLED_FONT = Path("src", "qalam", "data", "chawki-demo.qalam-font.json")
#: The glyph ``ب`` maps to on its own, and a growable mark.
_BEH, _FATHA = "beh.isol", "fatha"
#: A value that deletes its field.
_DELETE = object()
#: Malformed fonts by file name, each the bundled font with one field
#: (a path of keys) set to a value or deleted.
MALFORMED_FONTS = {
    "advance-missing": (("glyphs", _BEH, "advance"), _DELETE),
    "advance-string": (("glyphs", _BEH, "advance"), "240"),
    "advance-negative": (("glyphs", _BEH, "advance"), -1),
    "ink-degenerate": (("glyphs", _BEH, "ink"), [400, -60, 20, 180]),
    "ink-bool": (("glyphs", _BEH, "ink"), [20, -60, True, 180]),
    "glyph-svg-path": (("glyphs", _BEH, "svg_path"), 5),
    "mark-svg-path": (("marks", _FATHA, "svg_path"), ["M 0 0"]),
    "variants-array": (("marks", _FATHA, "variants"), []),
    "variant-id-number": (("marks", _FATHA, "variants", "medium"), 3),
    "anchor-missing": (("marks", _FATHA, "anchor"), _DELETE),
    "anchor-short": (("marks", _FATHA, "anchor"), [1]),
    "cmap-form-number": (("cmap", "0628", "isolated"), 7),
    "cmap-forms-array": (("cmap", "0628"), []),
}


def write_malformed_fonts(dest: Path) -> None:
    """Write each of ``MALFORMED_FONTS`` into ``dest`` as ``<name>.json``."""
    text = (ROOT / BUNDLED_FONT).read_text(encoding="utf-8")
    for name, ((*steps, key), value) in MALFORMED_FONTS.items():
        doc = json.loads(text)
        table = doc
        for step in steps:
            table = table[step]
        if value is _DELETE:
            del table[key]
        else:
            table[key] = value
        (dest / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


#: Command lines run once per tree; ``{font}`` stands for its bundled font,
#: ``{tmp}`` for the script's temporary directory, and the word after
#: ``<``, if any, is the line's stdin.
CLI_LINES = [
    (),
    ("-h",),
    ("bogus",),
    *[(command, "-h") for command in ("shape", "justify", "render", "fontlint")],
    *_FLAG_ERRORS,
    *[(*argv, *_JSON_ERRORS) for argv in _FLAG_ERRORS],
    ("justify", *_TEXT),
    ("render", "--bogus"),
    ("fontlint", "--font", "{font}"),
    *[
        (*argv, "--format", style, *(("<", stdin) if stdin else ()))
        for argv, stdin in _ERROR_EXITS
        for style in ("text", "json-errors")
    ],
    *[
        ("shape", "--font", f"{{tmp}}/{name}.json", *_TEXT, "--format", style)
        for name in MALFORMED_FONTS
        for style in ("text", "json-errors")
    ],
]

#: Runs in a fresh interpreter: argv is (src directory, font path,
#: temporary directory), stdin the JSON list of (font, paragraphs,
#: commands) groups and the fixed command lines; writes one JSON record
#: per command. A group's font is null for the tree's bundled font.
WORKER = r"""
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from qalam.cli import main

bundled, tmp = sys.argv[2:4]
groups, cli_lines = json.load(sys.stdin)

def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin_text)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()

records = []
for line in cli_lines:
    argv = [bundled if word == "{font}" else word.replace("{tmp}", tmp) for word in line]
    stdin_text = ""
    if "<" in argv:
        argv, stdin_text = argv[:argv.index("<")], argv[-1]
    records.append(["qalam " + " ".join(line), *run(argv, stdin_text)])
for font, paragraphs, commands in groups:
    font = font or bundled
    for label, text in paragraphs:
        for command in commands:
            name = " ".join(command)
            code, out, err = run([command[0], "--font", font, "--text", text, *command[1:]])
            records.append([f"{label}: {name}", code, out, err])
            if code == 0:
                argv = ["render", "--font", font]
                records.append([f"{label}: {name} | render", *run(argv, out)])
json.dump(records, sys.stdout)
"""


def _gen():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    return gen


def paragraphs(seeds: list[int], count: int, words: int) -> list[tuple[str, str]]:
    gen = _gen()
    out = []
    for seed in seeds:
        for stream in ("fresh", "zipf"):
            source = getattr(gen, f"{stream}_paragraphs")(seed, words=words)
            for i, text in enumerate(itertools.islice(source, count)):
                out.append((f"{stream} seed {seed} #{i}", text))
    return out


def long_paragraph(seed: int) -> tuple[str, str]:
    text = next(_gen().fresh_paragraphs(seed, words=LONG_WORDS))
    return (f"fresh seed {seed}, {LONG_WORDS} words", text)


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = dest / "rev.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")


class WorkerFailed(Exception):
    """A tree's worker crashed; the message is its last line of stderr."""


def run_tree(tree: Path, cases: list, tmp: Path) -> list:
    done = subprocess.run(
        [sys.executable, "-I", "-c", WORKER, str(tree / "src"), str(tree / BUNDLED_FONT),
         str(tmp)],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise WorkerFailed((done.stderr.strip().splitlines() or ["no output"])[-1])
    return json.loads(done.stdout)


def _usage_error_json(stderr: str) -> str:
    """The stdout line ``--format json-errors`` adds to a flag error."""
    message = stderr.splitlines()[-1].split(": error: ", 1)[-1]
    record = {"error": {"code": "UsageError", "message": message}}
    return json.dumps(record, sort_keys=True) + "\n"


def _comparable(record: list) -> list:
    """``record`` without the stdout line a json-errors flag error may add."""
    label, code, out, err = record
    if code == 2 and err and label.endswith(" ".join(_JSON_ERRORS)):
        out = out.replace(_usage_error_json(err), "", 1)
    return [label, code, out, err]


def first_difference(ours: list, theirs: list) -> str | None:
    ours = [_comparable(record) for record in ours]
    theirs = [_comparable(record) for record in theirs]
    for mine, other in zip(ours, theirs):
        if mine[0] != other[0]:
            return f"command lists diverge: {other[0]!r} at REV, {mine[0]!r} here"
        for field, a, b in zip(("exit code", "stdout", "stderr"), other[1:], mine[1:]):
            if a == b:
                continue
            where = f"{mine[0]}: {field} differs"
            if field == "exit code":
                return f"{where}: {a} at REV, {b} here"
            lines_a, lines_b = a.splitlines(), b.splitlines()
            for n, (line_a, line_b) in enumerate(itertools.zip_longest(lines_a, lines_b)):
                if line_a != line_b:
                    return f"{where} at line {n + 1}:\n  REV:  {line_a!r}\n  here: {line_b!r}"
            return f"{where} only in line endings"
    if len(ours) != len(theirs):
        return f"{len(theirs)} commands at REV, {len(ours)} here"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--paragraphs", type=int, default=2, help="per stream and seed")
    parser.add_argument("--words", type=int, default=20, help="words per paragraph")
    args = parser.parse_args(argv)

    short = paragraphs(args.seeds, args.paragraphs, args.words)
    corpus = ("corpus", CORPUS.read_text(encoding="utf-8"))
    groups = [
        (None, short, COMMANDS),
        (None, [long_paragraph(args.seeds[0])], LONG_COMMANDS),
        (None, [("repeats", REPEATS_TEXT)], REPEATS_COMMANDS),
        (str(RULES_FONT), [*short, corpus], RULES_COMMANDS),
    ]
    cases = [groups, CLI_LINES]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(args.rev, Path(tmp))
        except subprocess.CalledProcessError:
            print(f"error: cannot export revision {args.rev!r}", file=sys.stderr)
            return 2
        write_malformed_fonts(Path(tmp))
        side = "REV"
        try:
            theirs = run_tree(Path(tmp) / "tree", cases, Path(tmp))
            side = "working tree"
            ours = run_tree(ROOT, cases, Path(tmp))
        except WorkerFailed as exc:
            print(f"error: the {side} could not run: {exc}", file=sys.stderr)
            return 2
    difference = first_difference(ours, theirs)
    if difference is not None:
        print(difference)
        return 1
    print(f"same output on {len(ours)} commands ({len(short) + 3} paragraphs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
