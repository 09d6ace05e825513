import dataclasses

import pytest

from mntag.lexicon import LexiconError, dump_lexicon, load_lexicon, lookup
from mntag.tags import Modality

NEED_RECORD = """\
String: need
Pos: VB
Modality: Require
Trigger: need
Subcat: V3-passive-basic -- More volunteers are needed to help.
Subcat: V3-I3-basic -- The city will need to rebuild the bridge.
Subcat: T1-monotransitive-for-V3-verbs -- We need a hero.
Subcat: T1-passive-for-V3-verb -- Tents are needed.
Subcat: Modal-auxiliary-basic -- He need not go.
"""


def test_load_need_record():
    lex = load_lexicon(NEED_RECORD)
    assert len(lex.entries) == 1
    entry = lex.entries[0]
    assert entry.surface == "need"
    assert entry.pos == ("VB",)
    assert entry.modality is Modality.REQUIRE
    assert entry.head == "need"
    assert len(entry.subcats) == 5
    assert "V3-passive-basic" in entry.subcats
    assert "Modal-auxiliary-basic" in entry.subcats


def test_load_empty_text():
    assert load_lexicon("").entries == ()
    assert load_lexicon("# only a comment\n").entries == ()


def test_missing_fields_report_record_ordinal():
    with pytest.raises(LexiconError, match="line 1: record 1"):
        load_lexicon("Pos: VB\nModality: Require\n")
    with pytest.raises(LexiconError, match="line 11: record 2"):
        load_lexicon(NEED_RECORD + "\nString: foo\nPos: VB\nSubcat: x\n")


@pytest.mark.parametrize("word", ["a|VB", "/^V/", "ok=trigger", "(x", "x)", "$..", "a<b"])
@pytest.mark.parametrize("key", ["String", "Forms"])
def test_words_rule_text_cannot_spell_are_rejected(key, word):
    fields = {"String": "must", "Forms": "must", key: word}
    text = (
        f"# comment\n\nString: {fields['String']}\nPos: MD\nModality: Require\n"
        f"Subcat: Modal-auxiliary-basic\nForms: {fields['Forms']}\n"
    )
    with pytest.raises(LexiconError) as info:
        load_lexicon(text)
    assert str(info.value) == f"line 3: record 1: word {word!r} is not a plain rule atom"


def test_unknown_modality_rejected():
    with pytest.raises(LexiconError, match="Maybe"):
        load_lexicon("String: x\nPos: NN\nModality: Maybe\n")


def test_unknown_keys_preserved():
    lex = load_lexicon("String: plan\nPos: VB\nModality: Intend\nSubcat: V3-I3-basic\nForms: plan plans planned planning\n")
    assert lex.entries[0].extra("Forms") == "plan plans planned planning"


def test_round_trip_dump_and_reload(seed_lexicon):
    dumped = dump_lexicon(seed_lexicon)
    reloaded = load_lexicon(dumped)
    assert reloaded.entries == seed_lexicon.entries
    assert dump_lexicon(reloaded) == dumped


def test_lookup_single_word():
    lex = load_lexicon("String: should\nPos: MD\nModality: Require\nSubcat: Modal-auxiliary-basic\n")
    hits = lookup(lex, [("should", "MD")], 0)
    assert len(hits) == 1
    assert hits[0][1] == (0, 1)


def test_lookup_pos_filters_homophones():
    lex = load_lexicon("String: can\nPos: MD\nModality: Able\nSubcat: Modal-auxiliary-basic\n")
    assert lookup(lex, [("can", "NN")], 0) == []
    assert len(lookup(lex, [("can", "MD")], 0)) == 1


def test_lookup_base_pos_covers_inflections():
    lex = load_lexicon("String: need\nPos: VB\nModality: Require\nSubcat: V3-I3-basic\n")
    assert len(lookup(lex, [("need", "VBP")], 0)) == 1
    assert lookup(lex, [("need", "MD")], 0) == []


def test_lookup_multiword_longest_first():
    text = (
        "String: hope\nPos: VB\nModality: Want\nSubcat: V3-I3-basic\n\n"
        "String: hope for\nPos: VB IN\nModality: Want\nTrigger: hope\nSubcat: I-FOR-basic\n"
    )
    lex = load_lexicon(text)
    hits = lookup(lex, [("hope", "VBP"), ("for", "IN")], 0)
    assert [h[1] for h in hits] == [(0, 2), (0, 1)]
    assert hits[0][0].head == "hope"
    # "hope for" would run past the last token.
    tagged = [("we", "PRP"), ("hope", "VBP")]
    assert [(h[0].surface, h[1]) for h in lookup(lex, tagged, 1)] == [("hope", (1, 2))]
    with pytest.raises(IndexError, match="position 2 outside sequence of 2"):
        lookup(lex, tagged, 2)


def test_a_line_that_is_not_key_value_is_rejected():
    with pytest.raises(LexiconError, match="record 1: not a 'Key: Value' line: 'Pos VB'"):
        load_lexicon("String: need\nPos VB\n")


def test_lookup_case_insensitive_words():
    lex = load_lexicon("String: Need\nPos: VB\nModality: Require\nSubcat: V3-I3-basic\n")
    assert len(lookup(lex, [("need", "VB")], 0)) == 1
    assert len(lookup(lex, [("NEED", "VB")], 0)) == 1


def test_lookup_index_is_no_field_and_leaves_equality_and_repr_alone(seed_lexicon):
    fresh = load_lexicon(dump_lexicon(seed_lexicon))
    before = repr(fresh)
    assert lookup(fresh, [("should", "MD")], 0)
    assert fresh == load_lexicon(dump_lexicon(seed_lexicon))
    assert hash(fresh) == hash(load_lexicon(dump_lexicon(seed_lexicon)))
    assert repr(fresh) == before
    assert [f.name for f in dataclasses.fields(fresh)] == ["entries", "lines"]


def test_head_must_be_a_surface_word():
    with pytest.raises(LexiconError):
        load_lexicon("String: hope for\nPos: VB IN\nModality: Want\nTrigger: wish\nSubcat: x\n")


def test_verbal_entries_need_subcats():
    with pytest.raises(LexiconError):
        load_lexicon("String: need\nPos: VB\nModality: Require\n")


def test_seed_lexicon_covers_every_modality(seed_lexicon):
    present = {e.modality for e in seed_lexicon.entries}
    assert present == set(Modality)
