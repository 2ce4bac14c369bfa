"""Structured corruption fuzzing: loaders must fail with package errors.

Every mutated document either loads or raises a QalamError subclass;
a raw KeyError/TypeError/AttributeError escaping a parser is a bug.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from qalam.cli import main
from qalam.diacritics import mark_word
from qalam.errors import QalamError
from qalam.fontmodel import load_font, serialize_font
from qalam.justify import JustifyParams, break_optimum
from qalam.layout import dumps, justified_document, loads, shaped_document, validate_document
from qalam.shaper import shape_words
from qalam.textmodel import decompose

from .conftest import DEMO_FONT_PATH
from .util import DELETE, demo_font_doc, set_path

REPLACEMENTS = [None, 3, "zz", [], {}, [1], {"x": 1}, True, -7, 3.5]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutations(seed, base, count, under=None, replacements=REPLACEMENTS):
    """``count`` seeded copies of ``base``, each with one node deleted or
    replaced by one of ``replacements``, paired with the path of that node.
    With ``under``, a set of top-level keys, only those keys' nodes are
    edited.

    A copy shares every subtree off the edited path with ``base``; only
    the containers on the path are copied, so ``base`` stays intact.
    """
    rng = random.Random(seed)
    paths = [p for p in _paths(base) if p and (under is None or p[0] in under)]
    for _ in range(count):
        p = rng.choice(paths)
        doc = node = copy.copy(base)
        for key in p[:-1]:
            node[key] = node = copy.copy(node[key])
        if rng.random() < 0.4 and isinstance(node, dict):
            del node[p[-1]]
        else:
            node[p[-1]] = rng.choice(replacements)
        yield doc, p


@pytest.fixture(scope="module")
def font_mutation_outcomes():
    """Each seed-400 font mutation, loaded once for the two tests below:
    its path and its outcome, the exception ``load_font`` raised or the
    sha256 of the loaded font's canonical serialization. The exceptions
    keep no traceback, whose frames would hold every mutated document."""
    base = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
    outcomes = []
    for doc, path in _mutations(400, base, 1500):
        try:
            font = load_font(json.dumps(doc))
        except Exception as exc:
            outcome = exc.with_traceback(None)
        else:
            outcome = hashlib.sha256(serialize_font(font).encode("utf-8")).hexdigest()
        outcomes.append(("/".join(map(str, path)), outcome))
    return outcomes


def _fail_on_raw_error(outcomes):
    for where, outcome in outcomes:
        if isinstance(outcome, Exception) and not isinstance(outcome, QalamError):
            pytest.fail(f"raw {type(outcome).__name__} at {where}: {outcome}")


def test_font_loader_survives_mutation(font_mutation_outcomes):
    _fail_on_raw_error(font_mutation_outcomes)


#: sha256 over the outcome of each seed-400 font mutation, one line each:
#: the error class and message, or ``ok`` and the sha256 of the loaded
#: font's canonical serialization. Any change in which error a malformed
#: font raises first, in its message, or in what a valid one loads as,
#: changes this digest.
FONT_MUTATION_OUTCOMES_SHA256 = (
    "029d2019467fbe0809f48f1bd4917768f8705f0d9763fef9dcde76fdbfc4e7d2"
)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_font_loader_mutation_outcomes_are_pinned(font_mutation_outcomes):
    """Each mutated font loads or raises a QalamError, and the outcomes
    match the pinned digest."""
    _fail_on_raw_error(font_mutation_outcomes)
    assert _outcomes_digest(font_mutation_outcomes) == FONT_MUTATION_OUTCOMES_SHA256


def _outcomes_digest(outcomes) -> str:
    return _digest(
        f"{type(outcome).__name__}: {outcome}"
        if isinstance(outcome, Exception)
        else f"ok {outcome}"
        for _, outcome in outcomes
    )


RULES_FONT_PATH = Path(__file__).resolve().parent / "data" / "rules-test.qalam-font.json"
#: Words that run every rule of the rules test font, with every feature on:
#: each substitution and metric kind, marks on ligatures and stacked on a
#: shadda, and one repeated word.
RULES_TEXT = "إِلَى شَرِبَ وَرَحْمَةُ فِي لَمْسٍ لَا بَ كَ سَبُّ إِلَى"
RULES_FEATURES = frozenset({"liga", "jalt", "ss01", "calt", "ccmp", "dist", "kern", "curs"})
#: Besides values of the wrong type, rule edits put in glyph ids the font
#: defines and numbers a rule may hold, so that many edited fonts load.
RULE_REPLACEMENTS = [
    *REPLACEMENTS, "beh.isol", "alef.fina", "lam_alef.isol", "fatha", "shadda", -400, 0, 60,
]


@pytest.fixture(scope="module")
def rule_mutation_outcomes():
    """Each seed-406 edit under the rules test font's ``gsub`` and
    ``gpos``, run once for the two tests below: its path and its outcome.
    A font that loads shapes ``RULES_TEXT`` and justifies it optimally
    with width variants at 1500 units; the outcome is the first exception
    raised, or the sha256 of both layout documents."""
    base = json.loads(RULES_FONT_PATH.read_text(encoding="utf-8"))
    # Only the rule tables change, so the rest of the font is written once.
    tables = ("gsub", "gpos")
    head = json.dumps({k: v for k, v in base.items() if k not in tables})[:-1]
    params = JustifyParams(variants=True)
    outcomes = []
    for doc, path in _mutations(406, base, 400, set(tables), RULE_REPLACEMENTS):
        rules = "".join(f', "{k}": {json.dumps(doc[k])}' for k in tables if k in doc)
        try:
            font = load_font(head + rules + "}")
            words = shape_words(decompose(RULES_TEXT), font, RULES_FEATURES)
            marked = [mark_word(word, font, params.gap_epsilon)[0] for word in words]
            layout = break_optimum(words, 1500, font, params)
        except Exception as exc:
            outcome = exc.with_traceback(None)
        else:
            docs = dumps(shaped_document(font, marked)) + dumps(justified_document(font, layout))
            outcome = hashlib.sha256(docs.encode("utf-8")).hexdigest()
        outcomes.append(("/".join(map(str, path)), outcome))
    return outcomes


def test_rule_kinds_survive_mutation(rule_mutation_outcomes):
    _fail_on_raw_error(rule_mutation_outcomes)


#: sha256 over the outcome of each seed-406 rule mutation, one line each:
#: the error class and message, or ``ok`` and the sha256 of the layouts.
RULE_MUTATION_OUTCOMES_SHA256 = (
    "79623330a6bfa97598c5c6d977f19f101ad6cc5d6beab9072dd14bb836189202"
)


def test_rule_mutation_outcomes_are_pinned(rule_mutation_outcomes):
    """Which error an edited rule raises first, and what the text shapes
    and justifies as under a rule set that loads, match the pinned digest."""
    _fail_on_raw_error(rule_mutation_outcomes)
    assert _outcomes_digest(rule_mutation_outcomes) == RULE_MUTATION_OUTCOMES_SHA256


def _shaped_layout(capsys) -> dict:
    code = main(["shape", "--font", str(DEMO_FONT_PATH), "--text", "سَبُّ"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_layout_validator_survives_mutation(capsys):
    for doc, path in _mutations(401, _shaped_layout(capsys), 800):
        try:
            validate_document(doc)
        except QalamError:
            pass
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"raw {type(exc).__name__} at {'/'.join(map(str, path))}: {exc}")


#: sha256 over the outcome of each seed-401 layout mutation read back by
#: ``layout.loads``, one line each: the error class and message, or ``ok``.
LAYOUT_MUTATION_OUTCOMES_SHA256 = (
    "2ba20e00a819ed8379341a1d3397cb77fdf82bba9f5aaafb9005b5c7d26c3750"
)


def test_layout_validator_mutation_outcomes_are_pinned(capsys):
    """Which error a malformed layout raises first, and its message, match
    the pinned digest."""
    outcomes = []
    for doc, _ in _mutations(401, _shaped_layout(capsys), 800):
        try:
            loads(json.dumps(doc))
        except QalamError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            outcomes.append("ok")
    assert _digest(outcomes) == LAYOUT_MUTATION_OUTCOMES_SHA256


def test_render_survives_layout_mutation(capsys, monkeypatch):
    """Seeded one-node edits of a justified layout, rendered through
    ``main``, either draw (exit 0) or fail with one error (exit 2)."""
    font = str(DEMO_FONT_PATH)
    argv = ["justify", "--font", font, "--width", "1200", "--text", "سَبُّ لَا بَيْتٌ"]
    assert main(argv) == 0
    base = json.loads(capsys.readouterr().out)
    for doc, path in _mutations(404, base, 300):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code = main(["render", "--font", font])
        out, err = capsys.readouterr()
        where = "/".join(map(str, path))
        assert code in {0, 2}, where
        assert "Traceback" not in err, where
        assert code == 0 or out == "", where


def test_commands_survive_font_mutation(tmp_path, capsys, monkeypatch):
    """Seeded one-node edits of the demo font that still load, run through
    ``main``: ``shape``, greedy and optimum ``justify`` and ``render`` each
    end in a documented exit code, never in a traceback."""
    base = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
    text = "سَبُّ لَا بَيْتٌ كَتَبَ فًيَ"
    commands = (
        ["shape", "--features", "liga,jalt"],
        ["justify", "--algorithm", "greedy", "--width", "1200"],
        ["justify", "--algorithm", "optimum", "--variants", "on", "--width", "1200"],
    )
    fonts = 0
    for doc, path in _mutations(405, base, 600):
        try:
            load_font(json.dumps(doc))
        except QalamError:
            continue
        font = tmp_path / "font.json"
        font.write_text(json.dumps(doc), encoding="utf-8")
        where = "/".join(map(str, path))
        for command, *rest in commands:
            code = main([command, "--font", str(font), "--text", text, *rest])
            out, err = capsys.readouterr()
            assert code in {0, 1, 2, 3, 4} and "Traceback" not in err, where
            if code == 0:
                monkeypatch.setattr("sys.stdin", io.StringIO(out))
                code = main(["render", "--font", str(font)])
                err = capsys.readouterr().err
                assert code in {0, 1, 2, 3, 4} and "Traceback" not in err, where
        fonts += 1
        if fonts == 100:
            break
    assert fonts >= 80


BEH_WITHOUT_ABOVE = (("glyphs", "beh.isol", "anchors", "above"), DELETE)
CMAP_TO_LARGE_FATHA = (("mark_cmap", "064E"), "fatha.large")
LARGE_FATHA_BELOW = (("marks", "fatha.large", "class"), "below")


@pytest.mark.parametrize(
    "edits, text, message",
    [
        pytest.param(
            [BEH_WITHOUT_ABOVE], "بَ",
            "beh.isol has no 'above' anchor for fatha",
            id="base-without-anchor",
        ),
        pytest.param(
            [(("marks", "shadda", "stack_anchor"), DELETE)], "بَّ",
            "shadda has no stacking anchor for fatha",
            id="shadda-without-stack-anchor",
        ),
        pytest.param(
            [(("ligatures", 0, "component_anchors", 0, "above"), DELETE)], "لَا",
            "lam_alef.isol component 0 has no 'above' anchor",
            id="ligature-component-without-anchor",
        ),
        pytest.param(
            [CMAP_TO_LARGE_FATHA], "بَ",
            "mark_cmap U+064E maps to 'fatha.large', the large size of 'fatha', "
            "not to a mark at its normal size",
            id="mark-cmap-to-large-size",
        ),
        pytest.param(
            [LARGE_FATHA_BELOW], "بَ",
            "mark 'fatha.large', the large size of 'fatha', has class 'below', "
            "not 'above'",
            id="size-of-another-class",
        ),
        pytest.param(
            [CMAP_TO_LARGE_FATHA, LARGE_FATHA_BELOW, BEH_WITHOUT_ABOVE], "بَ",
            "mark 'fatha.large', the large size of 'fatha', has class 'below', "
            "not 'above'",
            id="large-size-below-on-base-without-above",
        ),
    ],
)
@pytest.mark.parametrize(
    "command", [["shape"], ["justify", "--width", "4000"]], ids=["shape", "justify"]
)
def test_font_missing_mark_geometry_is_one_error(
    tmp_path, capsys, edits, text, message, command
):
    """A font that lacks an anchor a mark needs, or whose mark sizes
    disagree with their mark, fails with one error line before any mark
    is placed."""
    doc = demo_font_doc()
    assert doc["ligatures"][0]["glyph"] == "lam_alef.isol"
    for path, value in edits:
        set_path(doc, path, value)
    font = tmp_path / "font.json"
    font.write_text(json.dumps(doc), encoding="utf-8")
    code = main([*command, "--font", str(font), "--text", text])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


PAIR = {"first": "beh.isol", "second": "alef.fina"}


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param(
            "cmap", "0_628", {"isolated": "alef.isol"},
            "cmap: bad code point key '0_628'", id="cmap-underscore",
        ),
        pytest.param(
            "cmap", "00628", {"isolated": "alef.isol"},
            "cmap: key '00628' names U+0628 a second time", id="cmap-second-key",
        ),
        pytest.param(
            "mark_cmap", "0x064E ", "fatha",
            "mark_cmap: bad code point key '0x064E '", id="mark-cmap-prefix",
        ),
        pytest.param(
            "mark_cmap", "064e", "damma",
            "mark_cmap: key '064e' names U+064E a second time", id="mark-cmap-second-key",
        ),
        pytest.param(
            "kashida_priority", "٣", 99,
            "kashida_priority: bad stretch class '٣'", id="kashida-arabic-digit",
        ),
        pytest.param(
            "kashida_priority", "03", 99,
            "kashida_priority: bad stretch class '03'", id="kashida-leading-zero",
        ),
        *(
            pytest.param(
                "gpos", None, {"kind": "pair_adj", "feature": "kern", "pairs": [pair]},
                f"pair_adj rule: bad pair adjustment {pair!r}", id=f"pair-advance-{name}",
            )
            for name, pair in [
                ("float", {**PAIR, "advance": 3.9}),
                ("string", {**PAIR, "advance": "12"}),
                ("bool", {**PAIR, "advance": True}),
            ]
        ),
        pytest.param(
            "gsub", None,
            {
                "kind": "contextual_sub",
                "feature": "calt",
                "contexts": [
                    {"match": ["beh.init", "beh.fina"],
                     "replace": {"1": "beh.fina", " 1": "beh.fina"}}
                ],
            },
            "contextual_sub rule: bad replacement offset ' 1'", id="contextual-offset",
        ),
    ],
)
def test_font_number_has_one_spelling(tmp_path, capsys, section, key, value, message):
    """A code point, stretch class or offset key in a second spelling, or a
    pair adjustment that is not an integer, fails with one error line
    rather than loading as some other number."""
    doc = demo_font_doc()
    if key is None:
        doc[section].append(value)
    else:
        doc[section][key] = value
    font = tmp_path / "font.json"
    font.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["shape", "--font", str(font), "--text", "ب"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_font_key_appears_once_per_object(tmp_path, capsys):
    """A font whose text spells ``"0628"`` twice in ``cmap`` fails with one
    error line; JSON parsing alone would keep one entry and drop the other
    silently."""
    text = DEMO_FONT_PATH.read_text(encoding="utf-8")
    entry = text.index('"0628"')
    font = tmp_path / "font.json"
    font.write_text(
        text[:entry] + '"0628": {"isolated": "alef.isol"}, ' + text[entry:], encoding="utf-8"
    )
    code = main(["shape", "--font", str(font), "--text", "ب"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: key '0628' appears twice in one object"]


@pytest.mark.parametrize(
    "value", ["9" * 5000, "[" * 100000 + "]" * 100000], ids=["long-integer", "deep-array"]
)
def test_json_python_cannot_read_is_one_error(tmp_path, capsys, monkeypatch, value):
    """An integer too long for ``int`` or arrays nested too deep make
    ``json.loads`` raise ``ValueError`` or ``RecursionError``, not a decode
    error; a font or a layout holding one still fails with one line."""
    text = DEMO_FONT_PATH.read_text(encoding="utf-8")
    font = tmp_path / "font.json"
    text = text.replace('"units_per_em": 1000', f'"units_per_em": {value}')
    font.write_text(text, encoding="utf-8")
    code = main(["shape", "--font", str(font), "--text", "ب"])
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("error: font file is not valid JSON: ")
    monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"measure": {value}}}'))
    code = main(["render", "--font", str(DEMO_FONT_PATH)])
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.startswith("error: layout is not valid JSON: ")


@pytest.mark.parametrize(
    "section, kind, feature, key",
    [
        ("gsub", "ligature_sub", "liga", "ligatures"),
        ("gsub", "contextual_sub", "calt", "contexts"),
        ("gpos", "pair_adj", "kern", "pairs"),
    ],
)
@pytest.mark.parametrize("payload", [False, 0, None, {}, ""], ids=repr)
def test_rule_payload_must_be_an_array(tmp_path, capsys, section, kind, feature, key, payload):
    """A rule payload that is not an array fails with one error line rather
    than loading as an empty rule."""
    doc = demo_font_doc()
    doc[section].append({"kind": kind, "feature": feature, key: payload})
    font = tmp_path / "font.json"
    font.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["shape", "--font", str(font), "--text", "ب"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {kind} rule: expected an array, got {payload!r}"]


#: Values tried for each flag: valid ones, then ones the flag must
#: reject. ``{tmp}`` stands for the test's temporary directory.
FLAG_VALUES = {
    "--font": ([str(DEMO_FONT_PATH)], ["{tmp}/missing.json", "{tmp}/bad-font.json", ""]),
    "--format": (["text", "json-errors"], ["xml"]),
    "--text": (["سَبُّ لَا", "بـــَ سِينٌ", "مَدْرَسَة"], ["", "  ", "abc", "َب", "بُِ"]),
    "--text-file": (["{tmp}/text.txt"], ["{tmp}/latin1.txt", "{tmp}/missing.txt"]),
    "--features": (["", "liga,jalt", "ss01", ",,"], ["nope"]),
    "--gap-epsilon": (["10", "0"], ["-1", "x"]),
    "--width": (["4000", "1200", "900", "100000"], ["0", "-5", "1", "abc"]),
    "--algorithm": (["greedy", "optimum"], ["best"]),
    "--line-penalty": (["10", "-10"], ["x", str(10**20)]),
    "--overlap-penalty": (["3000", "inf", "0"], ["-1", "nan"]),
    "--variants": (["on", "off"], ["maybe"]),
    "--kashida-policy": (["single", "spread", "off"], ["all"]),
    "--stats": None,
    "--input": (["-", "{tmp}/layout.json"], ["{tmp}/text.txt", "{tmp}/missing.json"]),
    "-h": None,
}
#: Each subcommand's own flags, a tuple for flags that exclude each other;
#: the fuzz gives a subcommand others' flags too.
TEXT_FLAGS = ("--text", "--text-file")
COMMAND_FLAGS = {
    "shape": ["--font", "--format", TEXT_FLAGS, "--features", "--gap-epsilon"],
    "justify": [
        "--font", "--format", TEXT_FLAGS, "--features", "--gap-epsilon", "--width",
        "--algorithm", "--line-penalty", "--overlap-penalty", "--variants",
        "--kashida-policy", "--stats",
    ],
    "render": ["--font", "--format", "--input"],
    "fontlint": ["--font", "--format"],
}


def _flag_fuzz_lines(seed: int, count: int, tmp: str):
    """``count`` seeded command lines: a subcommand and most of its flags.
    Half the lines give every flag a valid value. The others give a flag
    an invalid value one time in five, and now and then a flag of another
    subcommand, a flag without its value or a stray word."""
    rng = random.Random(seed)
    every_flag = list(FLAG_VALUES)
    for _ in range(count):
        command = rng.choice(list(COMMAND_FLAGS))
        noise = rng.choice((0.0, 0.2))
        argv = [command]
        for flag in COMMAND_FLAGS[command]:
            if rng.random() < 0.2:
                continue
            if isinstance(flag, tuple):
                flag = rng.choice(flag)
            if rng.random() < noise / 4:
                flag = rng.choice(every_flag)
            argv.append(flag)
            values = FLAG_VALUES[flag]
            if values is not None and rng.random() >= noise / 4:
                valid, invalid = values
                argv.append(rng.choice(invalid if rng.random() < noise else valid))
        if rng.random() < noise / 4:
            argv.insert(rng.randint(1, len(argv)), "stray")
        yield [word.format(tmp=tmp) for word in argv]


def test_flag_fuzz_through_every_subcommand(tmp_path, capsys, monkeypatch):
    """Seeded flag and value combinations through ``main`` for every
    subcommand end in a documented exit code, never a traceback."""
    monkeypatch.delenv("QALAM_FONT_PATH", raising=False)
    (tmp_path / "text.txt").write_text("سَبُّ لَا", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("é".encode("latin-1"))
    (tmp_path / "bad-font.json").write_text('{"schema": "qalam-font/1"}', encoding="utf-8")
    assert main(["shape", "--font", str(DEMO_FONT_PATH), "--text", "سَبُّ"]) == 0
    layout = capsys.readouterr().out
    (tmp_path / "layout.json").write_text(layout, encoding="utf-8")
    codes = set()
    for argv in _flag_fuzz_lines(403, 300, str(tmp_path)):
        monkeypatch.setattr("sys.stdin", io.StringIO(layout))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in {0, 1, 2, 3, 4}, argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}
