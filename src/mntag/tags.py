"""Tag algebra for modality and negation labels.

A tag names a role (trigger or target), a modality, and up to two layers
of negation: an outer negation that scopes over the modality ("did not
try" -> NOTEffort) and a lexical negation folded into the proposition
("tried not to go" -> EffortNegation).  Requirement and permission are
dual under lexical negation, so ``RequireNegation`` and
``PermitNegation`` never appear in canonical form: they rewrite to
``NOTPermit`` and ``NOTRequire`` respectively.

Those rules are spelled once, in ``MNTag.__post_init__``.  The tag
table ``TAGS`` is built at import by asking ``MNTag`` about each
spelling of the tag grammar, and the spellings, the inventory and
``parse_tag``, which parses nothing, are read off it.  Each
``MenuChoice`` holds the (modality, outer negation) pair of its tags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class Modality(Enum):
    """Closed set of modalities, plus the Negation pseudo-modality.

    Declaration order is precedence order, highest first
    (``TAG_INVENTORY``, ``specificity_rank``)."""

    REQUIRE = "Require"
    PERMIT = "Permit"
    SUCCEED = "Succeed"
    EFFORT = "Effort"
    INTEND = "Intend"
    ABLE = "Able"
    WANT = "Want"
    BELIEF = "Belief"
    FIRM_BELIEF = "Firm_Belief"
    NEGATION = "Negation"

    __hash__ = object.__hash__  # members are singletons: hash in C, not by name


class Role(Enum):
    TRIGGER = "Trig"
    TARGET = "Targ"


# Require and Permit swap under lexical negation.
_DUAL = {Modality.REQUIRE: Modality.PERMIT, Modality.PERMIT: Modality.REQUIRE}


class TagError(ValueError):
    """Raised for malformed or non-canonical tag strings."""


@dataclass(frozen=True)
class MNTag:
    """One composite modality/negation tag, canonical by construction.

    The string form is ``Trig``/``Targ`` + optional ``NOT`` + modality
    name + optional trailing ``Negation``, e.g. ``TargNOTAble`` or
    ``TrigSucceed``.
    """

    role: Role
    outer_not: bool
    modality: Modality
    lexical_negation: bool

    def __post_init__(self) -> None:
        if self.modality is Modality.NEGATION and (self.outer_not or self.lexical_negation):
            raise TagError("the Negation pseudo-modality takes no NOT or Negation marks")
        if self.modality in _DUAL and self.lexical_negation:
            raise TagError(
                f"{self.modality.value}Negation is not canonical; rewrite via duality"
            )

    @property
    def base(self) -> str:
        """Tag string without the role prefix, e.g. ``NOTAbleNegation``."""
        return (
            ("NOT" if self.outer_not else "")
            + self.modality.value
            + ("Negation" if self.lexical_negation else "")
        )

    def __str__(self) -> str:
        return self.role.value + self.base


#: Every modality name read on input (tags, lexicon ``Modality`` lines),
#: by name; the spelling ``FirmBelief`` is accepted on input only.
MODALITY_BY_NAME = {m.value: m for m in Modality} | {"FirmBelief": Modality.FIRM_BELIEF}


def _table() -> tuple[dict[str, MNTag], dict[str, str]]:
    """Each spelling role + optional NOT + modality name + optional
    Negation: those whose tag ``MNTag`` accepts to that tag, within a
    role the bases in precedence order, and the rest to the message
    ``MNTag`` refuses them with."""
    table: dict[str, MNTag] = {}
    refused: dict[str, str] = {}
    for role in Role:
        for name, modality in MODALITY_BY_NAME.items():
            for lexical in ("", "Negation"):
                for outer in ("", "NOT"):
                    s = role.value + outer + name + lexical
                    try:
                        table[s] = MNTag(role, bool(outer), modality, bool(lexical))
                    except TagError as exc:
                        refused[s] = str(exc)
    return table, refused


#: The tag table, built at import: each of the 74 accepted spellings
#: (``FirmBelief`` included) to its tag.  Testing a label for a tag and
#: reading it are one lookup here, with no exception; a tag is immutable,
#: so every caller shares one.  ``_REFUSED`` holds the other 14 spellings
#: of the grammar, each to ``MNTag``'s message.
TAGS, _REFUSED = _table()

#: The strings ``parse_tag`` accepts: the table's spellings.
TAG_SPELLINGS = frozenset(TAGS)

#: All 33 canonical tag bases, from highest to lowest precedence.
TAG_INVENTORY: tuple[str, ...] = tuple(dict.fromkeys(tag.base for tag in TAGS.values()))

_RANK = {base: i for i, base in enumerate(TAG_INVENTORY)}

#: Each tag but a bare Negation to its composed tag, a shared one.
_NEGATED = {
    tag: TAGS[str(replace(tag, outer_not=not tag.outer_not))]
    for tag in TAGS.values()
    if tag.modality is not Modality.NEGATION
}


def parse_tag(s: str) -> MNTag:
    """The shared tag of ``TAGS`` that ``s`` spells, such as
    ``TargNOTSucceedNegation``.

    Any other string raises TagError: a spelling ``MNTag`` refuses, such
    as ``TrigRequireNegation``, with ``MNTag``'s message (``_REFUSED``),
    and every other string with one message that quotes it.
    """
    tag = TAGS.get(s)
    if tag is None:
        raise TagError(_REFUSED.get(s) or f"malformed tag or unknown modality name: {s!r}")
    return tag


def specificity_rank(tag: MNTag) -> int:
    """Position of the tag base in the precedence order; 0 is highest.

    The role prefix does not participate: ``TrigAble`` and ``TargAble``
    rank equally.
    """
    return _RANK[tag.base]


def compose_negation(tag: MNTag) -> MNTag:
    """Compose an outer negation onto a modality tag.

    ``TrigAble`` composed with a negation trigger yields the
    ``NOTAble`` family; composing twice restores the original tag.  The
    result is a shared tag of ``TAGS``; bare Negation tags cannot be
    negated further.
    """
    negated = _NEGATED.get(tag)
    if negated is None:
        raise TagError("cannot compose negation onto a bare Negation tag")
    return negated


def negate_proposition(tag: MNTag) -> MNTag:
    """Negate the proposition under a tag (target polarity false).

    For most modalities this toggles the trailing lexical negation:
    Succeed <-> SucceedNegation.  Require and Permit instead rewrite
    through their duality: not-requiring P true equals permitting P
    false, so Require gains NOT and becomes Permit (and conversely),
    keeping the inventory free of RequireNegation/PermitNegation.
    """
    if tag.modality is Modality.NEGATION:
        raise TagError("cannot negate the proposition of a bare Negation tag")
    if tag.modality in _DUAL:
        return MNTag(tag.role, not tag.outer_not, _DUAL[tag.modality], False)
    return MNTag(tag.role, tag.outer_not, tag.modality, not tag.lexical_negation)


class MenuChoice(Enum):
    """The thirteen-way annotation menu.  Each choice's value is the
    (modality, outer negation) pair its tags are made of."""

    REQUIRE = (Modality.REQUIRE, False)
    PERMIT = (Modality.PERMIT, False)
    SUCCEED = (Modality.SUCCEED, False)
    NOT_SUCCEED = (Modality.SUCCEED, True)
    TRY = (Modality.EFFORT, False)
    NOT_TRY = (Modality.EFFORT, True)
    INTEND = (Modality.INTEND, False)
    NOT_INTEND = (Modality.INTEND, True)
    ABLE = (Modality.ABLE, False)
    NOT_ABLE = (Modality.ABLE, True)
    WANT = (Modality.WANT, False)
    FIRM_BELIEF = (Modality.FIRM_BELIEF, False)
    BELIEF = (Modality.BELIEF, False)


@dataclass(frozen=True)
class AnnotationChoice:
    """A menu selection plus the polarity chosen for the target."""

    menu: MenuChoice
    target_polarity: bool = True


def menu_choice_to_tags(choice: AnnotationChoice) -> tuple[MNTag, MNTag]:
    """Map a menu selection to its canonical (trigger, target) pair.

    A false target polarity folds a lexical negation into the target
    tag, going through the Require/Permit duality where needed.
    """
    modality, outer = choice.menu.value
    trigger = MNTag(Role.TRIGGER, outer, modality, False)
    target = MNTag(Role.TARGET, outer, modality, False)
    if not choice.target_polarity:
        target = negate_proposition(target)
    return trigger, target
