from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from qalam import textmodel
from qalam.errors import (
    DuplicateMark,
    EmptyWord,
    LeadingMark,
    UnsupportedCharacter,
)
from qalam.textmodel import (
    DEFAULT_TABLE,
    CharClass,
    Cluster,
    Form,
    JoiningClass,
    analyze_joining,
    classify_codepoint,
    decompose,
    flatten,
    valid_forms,
)

from .joining_oracle import ARABIC_SHAPING_TYPE, reference_forms
from .util import random_letters

BEH, ALEF, LAM, MEEM, DAL = 0x0628, 0x0627, 0x0644, 0x0645, 0x062F
FATHA, SHADDA = 0x064E, 0x0651


class TestClassify:
    def test_letter(self):
        assert classify_codepoint(BEH) is CharClass.LETTER

    def test_diacritic(self):
        assert classify_codepoint(FATHA) is CharClass.DIACRITIC

    def test_latin_is_other(self):
        assert classify_codepoint(0x0041) is CharClass.OTHER

    def test_tatweel_and_space(self):
        assert classify_codepoint(0x0640) is CharClass.TATWEEL
        assert classify_codepoint(0x0020) is CharClass.SPACE

    def test_total_over_plane(self):
        for cp in range(0, 0x800):
            classify_codepoint(cp)

    def test_partition(self):
        letters = set(DEFAULT_TABLE.letters)
        marks = set(DEFAULT_TABLE.diacritics)
        assert not letters & marks
        for cp in letters:
            assert classify_codepoint(cp) is CharClass.LETTER
        for cp in marks:
            assert classify_codepoint(cp) is CharClass.DIACRITIC


class TestDecompose:
    def test_groups_marks_with_base(self):
        words = decompose([BEH, FATHA, ALEF])
        assert len(words) == 1
        (w,) = words
        assert [c.base.code_point for c in w] == [BEH, ALEF]
        assert [m.code_point for m in w[0].marks] == [FATHA]
        assert w[1].marks == ()

    def test_leading_mark(self):
        with pytest.raises(LeadingMark):
            decompose([FATHA, BEH])

    def test_shadda_plus_vowel_one_cluster(self):
        words = decompose([BEH, SHADDA, FATHA])
        (w,) = words
        assert len(w) == 1
        assert [m.code_point for m in w[0].marks] == [SHADDA, FATHA]

    def test_duplicate_vowel_rejected(self):
        with pytest.raises(DuplicateMark):
            decompose([BEH, FATHA, 0x064F])

    def test_repeated_same_mark_rejected(self):
        with pytest.raises(DuplicateMark):
            decompose([BEH, SHADDA, SHADDA])

    def test_tatweel_records_hint(self):
        words = decompose([BEH, 0x0640, 0x0640, ALEF])
        (w,) = words
        assert w[0].stretch_hint == 2
        assert w[1].stretch_hint == 0

    def test_leading_tatweel(self):
        with pytest.raises(LeadingMark):
            decompose([0x0640, BEH])

    def test_unsupported_character(self):
        with pytest.raises(UnsupportedCharacter):
            decompose("بX")

    def test_spaces_delimit_words(self):
        words = decompose("با  با ")
        assert len(words) == 2
        assert all(len(w) == 2 for w in words)

    def test_string_input(self):
        words = decompose("بَا")
        assert [m.code_point for m in words[0][0].marks] == [FATHA]

    def test_builds_one_cluster_per_distinct_cluster(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Cluster(*args)

        monkeypatch.setattr(textmodel, "Cluster", counted)
        # beh+fatha, beh+fatha with one elongation (typed before or after
        # the fatha), beh+damma: three distinct clusters in eight.
        text = "بَبَ بَبَ بَـبُ بـَبُ"
        words = decompose(text)
        assert len(built) == 3
        flat = [c for w in words for c in w]
        assert len(flat) == 8 and len({id(c) for c in flat}) == 3
        assert flat[0] is flat[3] and flat[4] is flat[6] and flat[5] is flat[7]
        assert flat[4] == Cluster(DEFAULT_TABLE.letters[BEH], (DEFAULT_TABLE.diacritics[FATHA],), 1)
        # The clusters are interned per call: a second call builds its own.
        again = decompose(text)
        assert len(built) == 6 and again == words and again[0][0] is not flat[0]

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ("َب", LeadingMark, "mark U+064E at position 15 has no base letter"),
            ("ـب", LeadingMark, "elongation character at position 15 has no base letter"),
            ("بَx", UnsupportedCharacter, "U+0078 at position 17"),
            ("بَبَُ", DuplicateMark, "letter beh carries 2 vowel marks"),
            ("بّّ", DuplicateMark, "mark shadda repeated on letter beh"),
        ],
        ids=["mark", "tatweel", "unsupported", "second-vowel", "repeated-mark"],
    )
    def test_errors_in_a_later_word_keep_absolute_positions(self, bad, error, message):
        # Three words whose clusters are built before the bad word's.
        prefix = "بَبَ بَبَ بَبَ "
        assert len(prefix) == 15
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            decompose(prefix + bad)


class TestFlattenRoundTrip:
    def test_simple(self):
        original = decompose("بَا دٌ")
        assert decompose(flatten(original)) == original

    @given(st.data())
    def test_round_trip_random(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        from .util import random_word_text

        text = " ".join(random_word_text(rng, 4) for _ in range(rng.randint(1, 4)))
        words = decompose(text)
        assert decompose(flatten(words)) == words


class TestJoining:
    def letters(self, *cps):
        return [DEFAULT_TABLE.letters[cp] for cp in cps]

    def test_single_dual_isolated(self):
        assert analyze_joining(self.letters(BEH)) == [Form.ISOLATED]

    def test_beh_alef_beh(self):
        forms = analyze_joining(self.letters(BEH, ALEF, BEH))
        assert forms == [Form.INITIAL, Form.FINAL, Form.ISOLATED]

    def test_lam_meem_dal(self):
        forms = analyze_joining(self.letters(LAM, MEEM, DAL))
        assert forms == [Form.INITIAL, Form.MEDIAL, Form.FINAL]

    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            analyze_joining([])

    def test_matches_reference_exhaustive_len3(self):
        pool = sorted(DEFAULT_TABLE.letters)
        for length in (1, 2, 3):
            for combo in itertools.product(pool, repeat=length):
                letters = self.letters(*combo)
                got = [f.value for f in analyze_joining(letters)]
                assert got == reference_forms(list(combo)), combo

    def test_matches_reference_sampled_len6(self):
        rng = random.Random(710)
        for _ in range(2000):
            cps = random_letters(rng, rng.randint(4, 6))
            letters = self.letters(*cps)
            got = [f.value for f in analyze_joining(letters)]
            assert got == reference_forms(cps), cps

    @given(st.data())
    def test_medial_needs_both_neighbours(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        cps = random_letters(rng, rng.randint(1, 6))
        letters = self.letters(*cps)
        forms = analyze_joining(letters)
        for i, form in enumerate(forms):
            if form is Form.MEDIAL:
                assert 0 < i < len(letters) - 1
                assert letters[i - 1].joining_class is JoiningClass.DUAL
                assert letters[i].joining_class is JoiningClass.DUAL
                assert letters[i + 1].joining_class is not JoiningClass.NONE
            if form is Form.ISOLATED and 0 < i < len(letters) - 1:
                joins_prev = letters[i - 1].joining_class is JoiningClass.DUAL and (
                    letters[i].joining_class is not JoiningClass.NONE
                )
                assert not joins_prev

    def test_joining_table_matches_unicode_data(self):
        to_type = {
            JoiningClass.DUAL: "D",
            JoiningClass.RIGHT: "R",
            JoiningClass.NONE: "U",
        }
        for cp, letter in DEFAULT_TABLE.letters.items():
            assert to_type[letter.joining_class] == ARABIC_SHAPING_TYPE[cp], letter.name


class TestTableInvariants:
    def test_skeleton_families_share_a_joining_class(self):
        by_family: dict[str, list] = {}
        for letter in DEFAULT_TABLE.letters.values():
            by_family.setdefault(letter.skeleton_family, []).append(letter)
        for family, members in by_family.items():
            joinings = {m.joining_class for m in members}
            assert len(joinings) == 1, family

    def test_only_fatha_family_elongatable(self):
        for mark in DEFAULT_TABLE.diacritics.values():
            assert mark.elongatable == (mark.code_point in (0x064B, 0x064E))

    def test_valid_forms_by_joining(self):
        assert valid_forms(DEFAULT_TABLE.letters[ALEF]) == (Form.ISOLATED, Form.FINAL)
        assert len(valid_forms(DEFAULT_TABLE.letters[BEH])) == 4
        assert valid_forms(DEFAULT_TABLE.letters[0x0621]) == (Form.ISOLATED,)

    def test_cluster_rejects_second_vowel(self):
        with pytest.raises(DuplicateMark):
            Cluster(
                base=DEFAULT_TABLE.letters[BEH],
                marks=(
                    DEFAULT_TABLE.diacritics[0x064E],
                    DEFAULT_TABLE.diacritics[0x0650],
                ),
            )

