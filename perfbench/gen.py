"""Seeded input generator for the benchmark.

Words are built from qalam's built-in letter repertoire (U+0621..U+063A,
U+0641..U+064A) and its eight standard marks (U+064B..U+0652), so nothing
is downloaded and the generator does not import the engine: a change to
the engine cannot change the inputs it is measured on.

The word mix (word lengths, letter and vowel frequencies, how often a
letter is vocalized or doubled, how often the article occurs) is measured
on the engine's one vocalized sample text, ``src/qalam/data/corpus.txt``,
by ``profile``; the constants below are its result, and the benchmark's
tests check that they still match the file. What the sample cannot give
is marked as a free choice, with its reason.

Two streams:

- ``fresh_paragraphs``: no word repeats anywhere in the stream, so a word
  cache gets no hits.
- ``zipf_paragraphs``: words drawn with Zipfian frequency from a fixed
  generated vocabulary, as in running text where function words and
  clitics recur.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterator

LETTERS = tuple(
    chr(cp) for cp in itertools.chain(range(0x0621, 0x063B), range(0x0641, 0x064B))
)
SHADDA = "ّ"
#: The seven marks that fill a letter's single vowel slot.
VOWELS = tuple(chr(cp) for cp in range(0x064B, 0x0651)) + ("ْ",)
MARKS = VOWELS + (SHADDA,)
SUKUN = "ْ"

ALEF, LAM, FEH, YEH = "ا", "ل", "ف", "ي"
#: Definite article; before alef it forms the LamAlef ligature, before
#: meem the lam-meem aesthetic ligature.
ARTICLE = ALEF + LAM
#: The sun letters: after the article they take a shadda and the lam
#: stays bare; before any other letter the lam takes a sukun. This is
#: Arabic orthography, which every article in the sample text follows.
SUN_LETTERS = frozenset("تثدذرزسشصضطظلن")

# Measured on src/qalam/data/corpus.txt (30 words, 132 letters) by
# ``profile``. "Body" letters are a word's letters after any article.

#: Share of words that are feh-yeh (في), the feh-yeh aesthetic ligature.
FEH_YEH_SHARE = 1 / 30
#: Share of the other words that carry the article.
ARTICLE_SHARE = 10 / 29
#: Body letters per word, over the other words.
LENGTH_WEIGHTS = {2: 4, 3: 9, 4: 8, 5: 6, 6: 1, 7: 1}
#: Body letter counts, over the other words.
LETTER_COUNTS = {
    "ء": 0, "آ": 0, "أ": 0, "ؤ": 0, "إ": 1, "ئ": 0, "ا": 12, "ب": 8, "ة": 2,
    "ت": 3, "ث": 1, "ج": 2, "ح": 4, "خ": 0, "د": 4, "ذ": 1, "ر": 9, "ز": 0,
    "س": 4, "ش": 1, "ص": 1, "ض": 0, "ط": 3, "ظ": 1, "ع": 2, "غ": 0, "ف": 1,
    "ق": 1, "ك": 3, "ل": 14, "م": 12, "ن": 4, "ه": 5, "و": 6, "ى": 1, "ي": 4,
}
#: Share of body letters that carry a vowel mark (sukun included).
VOWEL_SHARE = 93 / 110
#: Vowel marks on body letters.
VOWEL_COUNTS = {"ً": 5, "ٌ": 3, "ٍ": 0, "َ": 47, "ُ": 11, "ِ": 16, "ْ": 11}
#: Share of body letters that carry a shadda, not counting the sun letter
#: after the article, whose shadda the orthography fixes.
SHADDA_SHARE = 2 / 100

# Free choices, which a 30-word sample cannot settle:
#: Added to every letter and vowel count, so that every letter and mark of
#: the repertoire occurs; the sample lacks 9 letters and one tanween.
SMOOTHING = 1
#: Words per paragraph; large enough for several lines per paragraph.
PARAGRAPH_WORDS = 120
#: Distinct words of the Zipfian stream: enough that a word cache still
#: misses, few enough that the frequent words recur in every paragraph.
#: Each run prints the distinct-word ratio it reached.
VOCABULARY_SIZE = 2000
#: Zipf's law in its classic form, frequency proportional to 1/rank.
#: Ranks follow length, shortest first: frequent words are short
#: (Zipf's law of abbreviation).
ZIPF_EXPONENT = 1.0


def profile(text: str) -> dict:
    """The word-mix statistics of a vocalized text, as the constants above.

    Letters are the generator's repertoire; each letter's marks are the
    marks that follow it. A word carries the article if it starts with
    alef-lam and has a letter after it.
    """
    letter_set, vowel_set = set(LETTERS), set(VOWELS)
    words = feh_yeh = article = vowelled = body_letters = 0
    shadda = shadda_letters = 0
    lengths: Counter[int] = Counter()
    letters: Counter[str] = Counter()
    vowels: Counter[str] = Counter()
    for word in text.split():
        clusters: list[list[str]] = []
        for ch in word:
            if ch in letter_set:
                clusters.append([ch, ""])
            elif clusters:
                clusters[-1][1] += ch
        if not clusters:
            continue
        words += 1
        skeleton = "".join(letter for letter, _ in clusters)
        if skeleton == FEH + YEH:
            feh_yeh += 1
            continue
        has_article = skeleton.startswith(ARTICLE) and len(skeleton) > 2
        article += has_article
        body = clusters[2:] if has_article else clusters
        lengths[len(body)] += 1
        for i, (letter, marks) in enumerate(body):
            letters[letter] += 1
            body_letters += 1
            vowel = [m for m in marks if m in vowel_set]
            vowelled += bool(vowel)
            vowels.update(vowel)
            if not (has_article and i == 0):
                shadda_letters += 1
                shadda += SHADDA in marks
    return {
        "FEH_YEH_SHARE": feh_yeh / words,
        "ARTICLE_SHARE": article / (words - feh_yeh),
        "LENGTH_WEIGHTS": dict(sorted(lengths.items())),
        "LETTER_COUNTS": {letter: letters[letter] for letter in LETTERS},
        "VOWEL_SHARE": vowelled / body_letters,
        "VOWEL_COUNTS": {mark: vowels[mark] for mark in VOWELS},
        "SHADDA_SHARE": shadda / shadda_letters,
    }


_LETTER_WEIGHTS = [LETTER_COUNTS[letter] + SMOOTHING for letter in LETTERS]
_VOWEL_WEIGHTS = [VOWEL_COUNTS[mark] + SMOOTHING for mark in VOWELS]


def _vocalize(letter: str, rng: random.Random, shadda: bool) -> str:
    """A letter with the sample's chance of a vowel and of a shadda."""
    marks = SHADDA if shadda else ""
    if rng.random() < VOWEL_SHARE:
        marks += rng.choices(VOWELS, _VOWEL_WEIGHTS)[0]
    return letter + marks


def random_word(rng: random.Random) -> str:
    """One vocalized word; every cluster carries at most one vowel mark."""
    if rng.random() < FEH_YEH_SHARE:
        return "".join(_vocalize(letter, rng, False) for letter in (FEH, YEH))
    has_article = rng.random() < ARTICLE_SHARE
    length = rng.choices(list(LENGTH_WEIGHTS), list(LENGTH_WEIGHTS.values()))[0]
    body = rng.choices(LETTERS, _LETTER_WEIGHTS, k=length)
    word = ""
    if has_article:
        sun = body[0] in SUN_LETTERS
        word = ALEF + LAM + ("" if sun else SUKUN)
    for i, letter in enumerate(body):
        if has_article and i == 0:
            shadda = sun
        else:
            shadda = rng.random() < SHADDA_SHARE
        word += _vocalize(letter, rng, shadda)
    return word


def fresh_words(seed: int) -> Iterator[str]:
    """An endless stream of words, none of which repeats."""
    rng = random.Random(f"fresh:{seed}")
    seen: set[str] = set()
    while True:
        word = random_word(rng)
        if word not in seen:
            seen.add(word)
            yield word


def vocabulary() -> list[str]:
    """The Zipfian stream's fixed vocabulary; rank 0 is the most frequent.

    It does not depend on the run's seed, so runs with different seeds
    differ only in which words they draw, not in what the words are like.
    """
    rng = random.Random("vocabulary")
    words: dict[str, None] = {}
    while len(words) < VOCABULARY_SIZE:
        words.setdefault(random_word(rng))
    return sorted(words, key=lambda w: (len(w), w))


def fresh_paragraphs(seed: int, words: int = PARAGRAPH_WORDS) -> Iterator[str]:
    stream = fresh_words(seed)
    while True:
        yield " ".join(itertools.islice(stream, words))


def zipf_paragraphs(seed: int, words: int = PARAGRAPH_WORDS) -> Iterator[str]:
    vocab = vocabulary()
    weights = list(
        itertools.accumulate(1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(vocab)))
    )
    rng = random.Random(f"zipf:{seed}")
    while True:
        yield " ".join(rng.choices(vocab, cum_weights=weights, k=words))
