import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mntag.tags import (
    TAG_INVENTORY,
    TAG_SPELLINGS,
    AnnotationChoice,
    MenuChoice,
    MNTag,
    Modality,
    Role,
    TagError,
    compose_negation,
    menu_choice_to_tags,
    negate_proposition,
    parse_tag,
    specificity_rank,
)


def test_inventory_has_33_tags_in_precedence_order():
    assert len(TAG_INVENTORY) == 33
    assert TAG_INVENTORY[0] == "Require"
    assert TAG_INVENTORY[-1] == "Negation"
    assert "RequireNegation" not in TAG_INVENTORY
    assert "PermitNegation" not in TAG_INVENTORY
    assert "NOTSucceedNegation" in TAG_INVENTORY


def test_inventory_is_pinned():
    """The whole precedence order, spelled out: ``TAG_INVENTORY`` follows
    the declaration order of ``Modality``, so reordering it fails here."""
    assert TAG_INVENTORY == (
        "Require", "NOTRequire",
        "Permit", "NOTPermit",
        "Succeed", "NOTSucceed", "SucceedNegation", "NOTSucceedNegation",
        "Effort", "NOTEffort", "EffortNegation", "NOTEffortNegation",
        "Intend", "NOTIntend", "IntendNegation", "NOTIntendNegation",
        "Able", "NOTAble", "AbleNegation", "NOTAbleNegation",
        "Want", "NOTWant", "WantNegation", "NOTWantNegation",
        "Belief", "NOTBelief", "BeliefNegation", "NOTBeliefNegation",
        "Firm_Belief", "NOTFirm_Belief", "Firm_BeliefNegation", "NOTFirm_BeliefNegation",
        "Negation",
    )


def test_parse_tag_examples():
    tag = parse_tag("TargNOTAble")
    assert tag == MNTag(Role.TARGET, True, Modality.ABLE, False)
    assert parse_tag("TrigNegation") == MNTag(Role.TRIGGER, False, Modality.NEGATION, False)
    assert parse_tag("TargNOTSucceedNegation") == MNTag(Role.TARGET, True, Modality.SUCCEED, True)


def test_parse_tag_raises_on_every_call_and_shares_results():
    for _ in range(3):
        with pytest.raises(TagError, match="unknown modality name"):
            parse_tag("TrigBogus")
        with pytest.raises(TagError, match="not canonical"):
            parse_tag("TrigRequireNegation")
    assert parse_tag("TargNOTAble") is parse_tag("TargNOTAble")


def test_parse_tag_accepts_both_firm_belief_spellings():
    with_underscore = parse_tag("TrigFirm_Belief")
    without = parse_tag("TrigFirmBelief")
    assert with_underscore == without
    assert str(without) == "TrigFirm_Belief"


@pytest.mark.parametrize("bad", ["Require", "TrigBogus", "TargNOTNegation", "TrigRequireNegation", "TargAbleX"])
def test_parse_tag_rejects_malformed(bad):
    with pytest.raises(TagError):
        parse_tag(bad)


def test_round_trip_full_inventory():
    for base in TAG_INVENTORY:
        for prefix in ("Trig", "Targ"):
            s = prefix + base
            assert str(parse_tag(s)) == s


def test_compose_negation_examples():
    able = MNTag(Role.TRIGGER, False, Modality.ABLE, False)
    assert str(compose_negation(able)) == "TrigNOTAble"
    target = MNTag(Role.TARGET, False, Modality.ABLE, False)
    assert str(compose_negation(target)) == "TargNOTAble"
    with pytest.raises(TagError):
        compose_negation(parse_tag("TrigNegation"))


def test_compose_negation_is_an_involution():
    for base in TAG_INVENTORY:
        if base == "Negation":
            continue
        tag = parse_tag("Targ" + base)
        assert compose_negation(compose_negation(tag)) == tag


def test_proposition_negation_duality():
    require = MNTag(Role.TARGET, False, Modality.REQUIRE, False)
    assert str(negate_proposition(require)) == "TargNOTPermit"
    permit = MNTag(Role.TARGET, False, Modality.PERMIT, False)
    assert str(negate_proposition(permit)) == "TargNOTRequire"
    assert str(negate_proposition(parse_tag("TargNOTRequire"))) == "TargPermit"
    assert str(negate_proposition(parse_tag("TargNOTPermit"))) == "TargRequire"
    succeed = MNTag(Role.TARGET, False, Modality.SUCCEED, False)
    assert str(negate_proposition(succeed)) == "TargSucceedNegation"


def test_canonical_form_rejects_require_negation():
    with pytest.raises(TagError):
        MNTag(Role.TARGET, False, Modality.REQUIRE, True)
    with pytest.raises(TagError):
        MNTag(Role.TARGET, True, Modality.NEGATION, False)


def test_specificity_rank_orders_families():
    def rank_of(base: str) -> int:
        return specificity_rank(parse_tag("Targ" + base))

    assert rank_of("Require") < rank_of("Negation")
    assert rank_of("NOTRequire") < rank_of("Permit")
    assert rank_of("Succeed") < rank_of("Effort")
    assert rank_of("Belief") < rank_of("Firm_Belief")
    ranks = [rank_of(base) for base in TAG_INVENTORY]
    assert ranks == sorted(ranks) and len(set(ranks)) == 33


# Expected (trigger, target) pairs for all 13 menu choices at both
# polarities, derived by hand from the duality rewrites.
MENU_GOLDEN = {
    (MenuChoice.REQUIRE, True): ("TrigRequire", "TargRequire"),
    (MenuChoice.REQUIRE, False): ("TrigRequire", "TargNOTPermit"),
    (MenuChoice.PERMIT, True): ("TrigPermit", "TargPermit"),
    (MenuChoice.PERMIT, False): ("TrigPermit", "TargNOTRequire"),
    (MenuChoice.SUCCEED, True): ("TrigSucceed", "TargSucceed"),
    (MenuChoice.SUCCEED, False): ("TrigSucceed", "TargSucceedNegation"),
    (MenuChoice.NOT_SUCCEED, True): ("TrigNOTSucceed", "TargNOTSucceed"),
    (MenuChoice.NOT_SUCCEED, False): ("TrigNOTSucceed", "TargNOTSucceedNegation"),
    (MenuChoice.TRY, True): ("TrigEffort", "TargEffort"),
    (MenuChoice.TRY, False): ("TrigEffort", "TargEffortNegation"),
    (MenuChoice.NOT_TRY, True): ("TrigNOTEffort", "TargNOTEffort"),
    (MenuChoice.NOT_TRY, False): ("TrigNOTEffort", "TargNOTEffortNegation"),
    (MenuChoice.INTEND, True): ("TrigIntend", "TargIntend"),
    (MenuChoice.INTEND, False): ("TrigIntend", "TargIntendNegation"),
    (MenuChoice.NOT_INTEND, True): ("TrigNOTIntend", "TargNOTIntend"),
    (MenuChoice.NOT_INTEND, False): ("TrigNOTIntend", "TargNOTIntendNegation"),
    (MenuChoice.ABLE, True): ("TrigAble", "TargAble"),
    (MenuChoice.ABLE, False): ("TrigAble", "TargAbleNegation"),
    (MenuChoice.NOT_ABLE, True): ("TrigNOTAble", "TargNOTAble"),
    (MenuChoice.NOT_ABLE, False): ("TrigNOTAble", "TargNOTAbleNegation"),
    (MenuChoice.WANT, True): ("TrigWant", "TargWant"),
    (MenuChoice.WANT, False): ("TrigWant", "TargWantNegation"),
    (MenuChoice.FIRM_BELIEF, True): ("TrigFirm_Belief", "TargFirm_Belief"),
    (MenuChoice.FIRM_BELIEF, False): ("TrigFirm_Belief", "TargFirm_BeliefNegation"),
    (MenuChoice.BELIEF, True): ("TrigBelief", "TargBelief"),
    (MenuChoice.BELIEF, False): ("TrigBelief", "TargBeliefNegation"),
}


def test_menu_choices_match_golden_table():
    for (menu, polarity), (trig, targ) in MENU_GOLDEN.items():
        trigger, target = menu_choice_to_tags(AnnotationChoice(menu, polarity))
        assert (str(trigger), str(target)) == (trig, targ)


def test_menu_targets_stay_inside_inventory():
    for menu in MenuChoice:
        for polarity in (True, False):
            _, target = menu_choice_to_tags(AnnotationChoice(menu, polarity))
            assert target.base in TAG_INVENTORY
            assert "RequireNegation" not in str(target)
            assert "PermitNegation" not in str(target)


def _parses(s: str) -> bool:
    try:
        parse_tag(s)
    except TagError:
        return False
    return True


#: Every modality spelling ``parse_tag`` reads, ``FirmBelief`` included.
_SPELLINGS = [m.value for m in Modality] + ["FirmBelief"]


def test_tag_spellings_agree_with_parse_tag_on_every_spelling():
    combos = [
        role + outer + name + lexical
        for role, outer, name, lexical in itertools.product(
            ("Trig", "Targ"), ("", "NOT"), _SPELLINGS, ("", "Negation")
        )
    ]
    assert len(combos) == len(set(combos)) == 88
    for s in combos:
        assert (s in TAG_SPELLINGS) == _parses(s), s
    assert TAG_SPELLINGS <= set(combos) and len(TAG_SPELLINGS) == 74
    # Non-canonical spellings are not tags.
    assert "TrigRequireNegation" not in TAG_SPELLINGS
    assert "TargNOTNegation" not in TAG_SPELLINGS
    assert "TrigFirmBelief" in TAG_SPELLINGS and "TargNOTFirm_BeliefNegation" in TAG_SPELLINGS


_TAG_PIECES = ["Trig", "Targ", "NOT", "Negation", "Able", "Require", "Firm_Belief", "FirmBelief", "x", "-", ""]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=24), st.lists(st.sampled_from(_TAG_PIECES), max_size=5).map("".join)))
def test_tag_spellings_agree_with_parse_tag_on_any_text(s):
    assert (s in TAG_SPELLINGS) == _parses(s)
