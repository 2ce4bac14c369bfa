"""Character-level model of Arabic text.

Classifies code points into letters, combining marks, the explicit
elongation character (U+0640), and spaces; groups a letter with its marks
into clusters; and computes the contextual joining form of every letter in
a word (isolated, initial, medial, final).

Joining follows the usual two-sided rule: a dual-joining letter connects
to both neighbours, a right-joining letter connects only to the letter
before it in logical order, and a non-joining letter connects to nothing.
A letter is rendered medial only when both neighbours join toward it.

The letters and marks are those of U+0621..U+0652 (the classical letter
repertoire plus the eight standard marks); ``decompose`` rejects any other
code point but the space and U+0640.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateMark,
    EmptyWord,
    LeadingMark,
    UnsupportedCharacter,
    checked,
)

TATWEEL_CP = 0x0640
SPACE_CP = 0x0020
FATHATAN_CP = 0x064B
FATHA_CP = 0x064E
SHADDA_CP = 0x0651

#: Code points whose marks may grow to fill space.
ELONGATABLE_MARKS = frozenset({FATHA_CP, FATHATAN_CP})


class CharClass(enum.Enum):
    LETTER = "letter"
    DIACRITIC = "diacritic"
    TATWEEL = "tatweel"
    SPACE = "space"
    OTHER = "other"


class JoiningClass(enum.Enum):
    DUAL = "dual"
    RIGHT = "right"
    NONE = "none"


class Placement(enum.Enum):
    # Members are singletons, so identity hashing, which runs in C, is
    # equivalent to Enum's hash of the member name, which runs in Python.
    __hash__ = object.__hash__

    ABOVE = "above"
    BELOW = "below"
    THROUGH = "through"


class MassClass(enum.Enum):
    __hash__ = object.__hash__  # as for Placement

    LIGHT = "light"
    MEDIUM = "medium"
    HEAVY = "heavy"


class Form(enum.Enum):
    __hash__ = object.__hash__  # as for Placement

    ISOLATED = "isolated"
    INITIAL = "initial"
    MEDIAL = "medial"
    FINAL = "final"


@checked
class LetterRecord(NamedTuple):
    """Linguistic and typographic properties of one base letter."""

    code_point: int
    name: str
    joining_class: JoiningClass
    skeleton_family: str
    stretch_class: int

    def _check(self) -> None:
        if self.stretch_class < 0:
            raise ValueError(f"{self.name}: stretch_class must be >= 0")


class DiacriticRecord(NamedTuple):
    """Properties of one combining mark."""

    code_point: int
    name: str

    @property
    def elongatable(self) -> bool:
        return self.code_point in ELONGATABLE_MARKS


@checked
class Cluster(NamedTuple):
    """A base letter plus the marks that ride on it, in stacking order.

    ``decompose`` puts shadda first and the other marks in typed order, so
    the two spellings of a letter with shadda and a vowel are one cluster.
    A hand-built ``Cluster`` is shaped in the order it holds.

    ``stretch_hint`` counts explicit elongation characters typed after the
    letter; the elongation planner may honour or ignore the hint.
    """

    base: LetterRecord
    marks: tuple[DiacriticRecord, ...] = ()
    stretch_hint: int = 0

    def _check(self) -> None:
        seen: set[int] = set()
        vowel_slots = 0
        for mark in self.marks:
            if mark.code_point in seen:
                raise DuplicateMark(
                    f"mark {mark.name} repeated on letter {self.base.name}"
                )
            seen.add(mark.code_point)
            # Every registered mark but shadda fills the letter's vowel slot.
            if mark.code_point != SHADDA_CP:
                vowel_slots += 1
        if vowel_slots > 1:
            raise DuplicateMark(
                f"letter {self.base.name} carries {vowel_slots} vowel marks"
            )


# One row per letter: code point, name, joining, skeleton family (letters
# sharing a family share one dotless shape), stretch class (0 = never
# elongated). The font, not this table, gives a glyph's mass class.
_LETTER_ROWS = [
    (0x0621, "hamza", "none", "hamza", 0),
    (0x0622, "alef_madda", "right", "alef_madda", 0),
    (0x0623, "alef_hamza_above", "right", "alef_hamza_above", 0),
    (0x0624, "waw_hamza_above", "right", "waw_hamza_above", 0),
    (0x0625, "alef_hamza_below", "right", "alef_hamza_below", 0),
    (0x0626, "yeh_hamza_above", "dual", "yeh_hamza_above", 2),
    (0x0627, "alef", "right", "alef", 0),
    (0x0628, "beh", "dual", "beh", 2),
    (0x0629, "teh_marbuta", "right", "teh_marbuta", 0),
    (0x062A, "teh", "dual", "beh", 2),
    (0x062B, "theh", "dual", "beh", 2),
    (0x062C, "jeem", "dual", "hah", 1),
    (0x062D, "hah", "dual", "hah", 1),
    (0x062E, "khah", "dual", "hah", 1),
    (0x062F, "dal", "right", "dal", 0),
    (0x0630, "thal", "right", "dal", 0),
    (0x0631, "reh", "right", "reh", 0),
    (0x0632, "zain", "right", "reh", 0),
    (0x0633, "seen", "dual", "seen", 3),
    (0x0634, "sheen", "dual", "seen", 3),
    (0x0635, "sad", "dual", "sad", 3),
    (0x0636, "dad", "dual", "sad", 3),
    (0x0637, "tah", "dual", "tah", 1),
    (0x0638, "zah", "dual", "tah", 1),
    (0x0639, "ain", "dual", "ain", 1),
    (0x063A, "ghain", "dual", "ain", 1),
    (0x0641, "feh", "dual", "feh", 2),
    (0x0642, "qaf", "dual", "qaf", 2),
    (0x0643, "kaf", "dual", "kaf", 2),
    (0x0644, "lam", "dual", "lam", 1),
    (0x0645, "meem", "dual", "meem", 1),
    (0x0646, "noon", "dual", "noon", 2),
    (0x0647, "heh", "dual", "heh", 1),
    (0x0648, "waw", "right", "waw", 0),
    (0x0649, "alef_maksura", "dual", "yeh", 2),
    (0x064A, "yeh", "dual", "yeh", 2),
]

_DIACRITIC_ROWS = [
    (0x064B, "fathatan"),
    (0x064C, "dammatan"),
    (0x064D, "kasratan"),
    (0x064E, "fatha"),
    (0x064F, "damma"),
    (0x0650, "kasra"),
    (0x0651, "shadda"),
    (0x0652, "sukun"),
]


class CharacterTable:
    """Registry of letters and marks the engine understands."""

    def __init__(
        self,
        letters: Iterable[LetterRecord],
        diacritics: Iterable[DiacriticRecord],
    ):
        self.letters: dict[int, LetterRecord] = {r.code_point: r for r in letters}
        self.diacritics: dict[int, DiacriticRecord] = {
            r.code_point: r for r in diacritics
        }

    def classify(self, cp: int) -> CharClass:
        if cp in self.letters:
            return CharClass.LETTER
        if cp in self.diacritics:
            return CharClass.DIACRITIC
        if cp == TATWEEL_CP:
            return CharClass.TATWEEL
        if cp == SPACE_CP:
            return CharClass.SPACE
        return CharClass.OTHER


def _default_table() -> CharacterTable:
    letters = [
        LetterRecord(cp, name, JoiningClass(joining), family, stretch)
        for cp, name, joining, family, stretch in _LETTER_ROWS
    ]
    diacritics = [DiacriticRecord(cp, name) for cp, name in _DIACRITIC_ROWS]
    return CharacterTable(letters, diacritics)


DEFAULT_TABLE = _default_table()


def classify_codepoint(cp: int) -> CharClass:
    """Classify any code point; total, never raises."""
    return DEFAULT_TABLE.classify(cp)


#: Appended to the code points ``decompose`` reads, to close the last word.
_END = object()


def decompose(text: str | Iterable[int]) -> list[list[Cluster]]:
    """Group a code point sequence into words of clusters.

    Every letter opens a cluster, following marks attach to it, an
    elongation character records a stretch hint on the open cluster, and
    spaces close the current word. Runs of spaces and leading or trailing
    spaces produce no empty words.

    A cluster's marks are stored in stacking order: shadda first, the
    others in typed order. Clusters are interned per call: every
    occurrence of a distinct (letter, marks in stacking order, stretch
    hint) shares one ``Cluster``, whichever order its marks were typed in.
    Marks are checked in typed order, so an error names them as typed.

    Raises LeadingMark when a mark or elongation character has no letter
    before it, DuplicateMark on conflicting vowel marks, and
    UnsupportedCharacter on anything outside the registered repertoire.
    Code points are classified as ``classify_codepoint`` does.
    """
    letters, diacritics = DEFAULT_TABLE.letters, DEFAULT_TABLE.diacritics
    cps = [ord(c) for c in text] if isinstance(text, str) else list(text)
    cps.append(_END)

    interned: dict[tuple[int, tuple[int, ...], int], Cluster] = {}
    words: list[list[Cluster]] = []
    word: list[Cluster] = []
    base: int | None = None  # the open cluster's letter
    marks: list[int] = []
    hint = 0
    for pos, cp in enumerate(cps):
        is_letter = cp in letters
        if not is_letter:
            if cp in diacritics:
                if base is None:
                    raise LeadingMark(f"mark U+{cp:04X} at position {pos} has no base letter")
                marks.append(cp)
                continue
            if cp == TATWEEL_CP:
                if base is None:
                    raise LeadingMark(
                        f"elongation character at position {pos} has no base letter"
                    )
                hint += 1
                continue
            if cp != SPACE_CP and cp is not _END:
                raise UnsupportedCharacter(f"U+{cp:04X} at position {pos}")
        # A letter, a space or the end of the text closes the open cluster.
        if base is not None:
            key = (base, tuple(marks), hint)
            cluster = interned.get(key)
            if cluster is None:
                # Checked as typed, so that an error names the marks in the
                # order they were typed; kept in stacking order.
                cluster = Cluster(letters[base], tuple([diacritics[m] for m in marks]), hint)
                if SHADDA_CP in marks[1:]:
                    stacked = sorted(cluster.marks, key=lambda m: m.code_point != SHADDA_CP)
                    cluster = interned.setdefault(
                        (base, tuple([m.code_point for m in stacked]), hint),
                        cluster._replace(marks=tuple(stacked)),
                    )
                interned[key] = cluster
            word.append(cluster)
            marks = []
            hint = 0
        if is_letter:
            base = cp
        else:  # and a space or the end closes the word
            base = None
            if word:
                words.append(word)
                word = []
    return words


def flatten(words: Sequence[Sequence[Cluster]]) -> list[int]:
    """Inverse of decompose: emit code points, single spaces between words."""
    out: list[int] = []
    for wi, word in enumerate(words):
        if wi:
            out.append(SPACE_CP)
        for cluster in word:
            out.append(cluster.base.code_point)
            out.extend(m.code_point for m in cluster.marks)
            out.extend([TATWEEL_CP] * cluster.stretch_hint)
    return out


#: A letter's form by whether it joins the letter before it and the
#: letter after it: ``_FORMS[2 * joins_prev + joins_next]``.
_FORMS = (Form.ISOLATED, Form.INITIAL, Form.FINAL, Form.MEDIAL)


def analyze_joining(letters: Sequence[LetterRecord]) -> list[Form]:
    """Assign isolated/initial/medial/final forms within one word."""
    if not letters:
        raise EmptyWord("cannot analyze joining of an empty word")
    # links[i]: letter i joins letter i + 1, which a dual-joining letter
    # does toward any letter that joins backward (dual or right).
    links = [
        a.joining_class is JoiningClass.DUAL and b.joining_class is not JoiningClass.NONE
        for a, b in zip(letters, letters[1:])
    ]
    return [_FORMS[2 * p + n] for p, n in zip([False, *links], [*links, False])]


def valid_forms(letter: LetterRecord) -> tuple[Form, ...]:
    """The joining forms a letter can take given its joining class."""
    if letter.joining_class is JoiningClass.DUAL:
        return (Form.ISOLATED, Form.INITIAL, Form.MEDIAL, Form.FINAL)
    if letter.joining_class is JoiningClass.RIGHT:
        return (Form.ISOLATED, Form.FINAL)
    return (Form.ISOLATED,)
