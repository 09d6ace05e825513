"""Tag algebra for modality and negation labels.

A tag names a role (trigger or target), a modality, and up to two layers
of negation: an outer negation that scopes over the modality ("did not
try" -> NOTEffort) and a lexical negation folded into the proposition
("tried not to go" -> EffortNegation).  Requirement and permission are
dual under lexical negation, so ``RequireNegation`` and
``PermitNegation`` never appear in canonical form: they rewrite to
``NOTPermit`` and ``NOTRequire`` respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache


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


def _inventory() -> tuple[str, ...]:
    out: list[str] = []
    for mod in Modality:
        out.append(mod.value)
        if mod is Modality.NEGATION:
            continue  # takes no NOT or Negation marks
        out.append("NOT" + mod.value)
        if mod not in _DUAL:
            out.append(mod.value + "Negation")
            out.append("NOT" + mod.value + "Negation")
    return tuple(out)


#: All 33 canonical tag bases, from highest to lowest precedence.
TAG_INVENTORY: tuple[str, ...] = _inventory()

_RANK = {base: i for i, base in enumerate(TAG_INVENTORY)}

#: Every modality name read on input (tags, lexicon ``Modality`` lines),
#: by name; the spelling ``FirmBelief`` is accepted on input only.
MODALITY_BY_NAME = {m.value: m for m in Modality} | {"FirmBelief": Modality.FIRM_BELIEF}

# Longest names first so Firm_Belief is not mis-read as Belief.
_MODALITY_NAMES = sorted(MODALITY_BY_NAME.items(), key=lambda kv: len(kv[0]), reverse=True)


@cache
def parse_tag(s: str) -> MNTag:
    """Parse a canonical tag string such as ``TargNOTSucceedNegation``.

    Raises TagError naming the offending substring on malformed input
    and on non-canonical combinations (``TrigRequireNegation``).  Results
    are cached: at most 88 strings parse (role, NOT, 11 modality
    spellings, Negation) and an ``MNTag`` is immutable, so callers may
    share one.  A failure is not cached and raises again on every call.
    """
    if s.startswith(Role.TRIGGER.value):
        role = Role.TRIGGER
    elif s.startswith(Role.TARGET.value):
        role = Role.TARGET
    else:
        raise TagError(f"tag must start with Trig or Targ, got {s!r}")
    rest = s[4:]
    outer = rest.startswith("NOT")
    if outer:
        rest = rest[3:]
    for name, modality in _MODALITY_NAMES:
        if rest.startswith(name):
            tail = rest[len(name) :]
            break
    else:
        raise TagError(f"unknown modality name in {s!r}: {rest!r}")
    if tail == "":
        lexical = False
    elif tail == "Negation":
        lexical = True
    else:
        raise TagError(f"trailing {tail!r} in tag {s!r}")
    return MNTag(role, outer, modality, lexical)


def _tag_spellings() -> frozenset[str]:
    """Every string ``parse_tag`` accepts: of the 88 spellings role,
    optional NOT, modality name, optional Negation, the 74 whose tag is
    canonical."""
    spellings = set()
    for role in Role:
        for outer in ("", "NOT"):
            for name, _ in _MODALITY_NAMES:
                for lexical in ("", "Negation"):
                    s = role.value + outer + name + lexical
                    try:
                        parse_tag(s)
                    except TagError:
                        continue
                    spellings.add(s)
    return frozenset(spellings)


#: The strings ``parse_tag`` accepts, built at import: testing a label
#: for a tag is one lookup here, and costs no exception.
TAG_SPELLINGS = _tag_spellings()


def specificity_rank(tag: MNTag) -> int:
    """Position of the tag base in the precedence order; 0 is highest.

    The role prefix does not participate: ``TrigAble`` and ``TargAble``
    rank equally.
    """
    return _RANK[tag.base]


def compose_negation(tag: MNTag) -> MNTag:
    """Compose an outer negation onto a modality tag.

    ``TrigAble`` composed with a negation trigger yields the
    ``NOTAble`` family; composing twice restores the original tag.
    Bare Negation tags cannot be negated further.
    """
    if tag.modality is Modality.NEGATION:
        raise TagError("cannot compose negation onto a bare Negation tag")
    return MNTag(tag.role, not tag.outer_not, tag.modality, tag.lexical_negation)


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
    """The thirteen-way annotation menu."""

    REQUIRE = "Require"
    PERMIT = "Permit"
    SUCCEED = "Succeed"
    NOT_SUCCEED = "NotSucceed"
    TRY = "Try"
    NOT_TRY = "NotTry"
    INTEND = "Intend"
    NOT_INTEND = "NotIntend"
    ABLE = "Able"
    NOT_ABLE = "NotAble"
    WANT = "Want"
    FIRM_BELIEF = "FirmBelief"
    BELIEF = "Belief"


@dataclass(frozen=True)
class AnnotationChoice:
    """A menu selection plus the polarity chosen for the target."""

    menu: MenuChoice
    target_polarity: bool = True


_MENU_BASE: dict[MenuChoice, tuple[Modality, bool]] = {
    MenuChoice.REQUIRE: (Modality.REQUIRE, False),
    MenuChoice.PERMIT: (Modality.PERMIT, False),
    MenuChoice.SUCCEED: (Modality.SUCCEED, False),
    MenuChoice.NOT_SUCCEED: (Modality.SUCCEED, True),
    MenuChoice.TRY: (Modality.EFFORT, False),
    MenuChoice.NOT_TRY: (Modality.EFFORT, True),
    MenuChoice.INTEND: (Modality.INTEND, False),
    MenuChoice.NOT_INTEND: (Modality.INTEND, True),
    MenuChoice.ABLE: (Modality.ABLE, False),
    MenuChoice.NOT_ABLE: (Modality.ABLE, True),
    MenuChoice.WANT: (Modality.WANT, False),
    MenuChoice.FIRM_BELIEF: (Modality.FIRM_BELIEF, False),
    MenuChoice.BELIEF: (Modality.BELIEF, False),
}


def menu_choice_to_tags(choice: AnnotationChoice) -> tuple[MNTag, MNTag]:
    """Map a menu selection to its canonical (trigger, target) pair.

    A false target polarity folds a lexical negation into the target
    tag, going through the Require/Permit duality where needed.
    """
    modality, outer = _MENU_BASE[choice.menu]
    trigger = MNTag(Role.TRIGGER, outer, modality, False)
    target = MNTag(Role.TARGET, outer, modality, False)
    if not choice.target_polarity:
        target = negate_proposition(target)
    return trigger, target
