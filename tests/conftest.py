from __future__ import annotations

from pathlib import Path

import pytest

from qalam.fontmodel import load_font_path
from qalam.shaper import shape_word
from qalam.textmodel import decompose

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "qalam" / "data"
DEMO_FONT_PATH = DATA_DIR / "chawki-demo.qalam-font.json"
CORPUS_PATH = DATA_DIR / "corpus.txt"
FRESH_WORDS_PATH = Path(__file__).resolve().parent / "data" / "fresh_words.txt"


@pytest.fixture(scope="session")
def demo_font():
    return load_font_path(DEMO_FONT_PATH)


@pytest.fixture(scope="session")
def corpus_text() -> str:
    return CORPUS_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_lines(corpus_text) -> list[str]:
    return [line for line in corpus_text.splitlines() if line]


@pytest.fixture(scope="session")
def corpus_words(demo_font, corpus_lines):
    """Every corpus word shaped with all optional features enabled."""
    features = frozenset({"liga", "jalt"})
    words = []
    for line in corpus_lines:
        for clusters in decompose(line):
            words.append(shape_word(clusters, demo_font, features))
    return words
