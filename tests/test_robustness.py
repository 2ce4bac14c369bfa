"""Structured corruption fuzzing: loaders must fail with package errors.

Every mutated document either loads or raises a QalamError subclass;
a raw KeyError/TypeError/AttributeError escaping a parser is a bug.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

import pytest

from qalam.cli import main
from qalam.errors import QalamError
from qalam.fontmodel import load_font, serialize_font
from qalam.layout import validate_document
from qalam.textmodel import CharacterTable

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


def _mutations(seed, base, count):
    """``count`` seeded copies of ``base``, each with one node deleted or
    replaced, paired with the path of that node.

    A copy shares every subtree off the edited path with ``base``; only
    the containers on the path are copied, so ``base`` stays intact.
    """
    rng = random.Random(seed)
    paths = [p for p in _paths(base) if p]
    for _ in range(count):
        p = rng.choice(paths)
        doc = node = copy.copy(base)
        for key in p[:-1]:
            node[key] = node = copy.copy(node[key])
        if rng.random() < 0.4 and isinstance(node, dict):
            del node[p[-1]]
        else:
            node[p[-1]] = rng.choice(REPLACEMENTS)
        yield doc, p


def test_font_loader_survives_mutation():
    base = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
    for doc, path in _mutations(400, base, 1500):
        try:
            load_font(json.dumps(doc))
        except QalamError:
            pass
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"raw {type(exc).__name__} at {'/'.join(map(str, path))}: {exc}")


#: sha256 over the outcome of each seed-400 font mutation, one line each:
#: the error class and message, or ``ok`` and the sha256 of the loaded
#: font's canonical serialization. Any change in which error a malformed
#: font raises first, in its message, or in what a valid one loads as,
#: changes this digest.
FONT_MUTATION_OUTCOMES_SHA256 = (
    "ce9bc5686ae091d7dbdb0fd4f12cd2fdfc868cf42ba018a47c9f3730969f0b11"
)


def test_font_loader_mutation_outcomes_are_pinned():
    base = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
    outcomes = []
    for doc, _ in _mutations(400, base, 1500):
        try:
            font = load_font(json.dumps(doc))
        except QalamError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            text = serialize_font(font).encode("utf-8")
            outcomes.append("ok " + hashlib.sha256(text).hexdigest())
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    assert digest == FONT_MUTATION_OUTCOMES_SHA256


def test_layout_validator_survives_mutation(capsys):
    code = main(["shape", "--font", str(DEMO_FONT_PATH), "--text", "سَبُّ"])
    assert code == 0
    base = json.loads(capsys.readouterr().out)
    for doc, path in _mutations(401, base, 800):
        try:
            validate_document(doc)
        except QalamError:
            pass
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"raw {type(exc).__name__} at {'/'.join(map(str, path))}: {exc}")


def test_character_table_survives_mutation():
    base = {
        "schema": "qalam-chars/1",
        "letters": [
            {
                "code_point": "06A9",
                "name": "keheh",
                "joining": "dual",
                "dots": 0,
                "dot_position": "none",
                "family": "keheh",
                "stretch_class": 2,
                "mass": "heavy",
            }
        ],
        "diacritics": [
            {"code_point": "0654", "name": "hamza_above", "placement": "above",
             "category": "language"}
        ],
    }
    for doc, path in _mutations(402, base, 600):
        try:
            CharacterTable.from_json(json.dumps(doc))
        except QalamError:
            pass
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"raw {type(exc).__name__} at {'/'.join(map(str, path))}: {exc}")


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
