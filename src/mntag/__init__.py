"""Modality/negation tagging and semantic tree grafting.

The toolkit tags constituency parse trees (and POS-tagged token
sequences) with modality/negation triggers and targets from a lexicon,
and grafts such standoff annotations, together with named-entity
annotations, onto parse trees as label suffixes.
"""

from .grafting import GraftConfig, GraftReport, SpanCase, classify_span, graft
from .lexicon import Lexicon, LexiconEntry, dump_lexicon, load_lexicon, lookup
from .matcher import Match, PatternRule, apply, match, parse_pattern, parse_rules
from .rulegen import TemplateRegistry, default_registry, expand_templates, preprocess
from .taggers import (
    StandoffAnnotation,
    TaggedToken,
    agreement,
    parse_inline,
    render_inline,
    tag_string,
    tag_structure,
)
from .tags import (
    AnnotationChoice,
    MenuChoice,
    MNTag,
    Modality,
    Role,
    TAG_INVENTORY,
    compose_negation,
    menu_choice_to_tags,
    negate_proposition,
    parse_tag,
    specificity_rank,
)
from .trees import ParseTree, Span, flatten, read_ptb, write_ptb

__version__ = "0.1.0"

__all__ = [
    "AnnotationChoice",
    "GraftConfig",
    "GraftReport",
    "Lexicon",
    "LexiconEntry",
    "Match",
    "MenuChoice",
    "MNTag",
    "Modality",
    "ParseTree",
    "PatternRule",
    "Role",
    "Span",
    "SpanCase",
    "StandoffAnnotation",
    "TAG_INVENTORY",
    "TaggedToken",
    "TemplateRegistry",
    "agreement",
    "apply",
    "classify_span",
    "compose_negation",
    "default_registry",
    "dump_lexicon",
    "expand_templates",
    "flatten",
    "graft",
    "load_lexicon",
    "lookup",
    "match",
    "menu_choice_to_tags",
    "negate_proposition",
    "parse_inline",
    "parse_pattern",
    "parse_rules",
    "parse_tag",
    "preprocess",
    "read_ptb",
    "render_inline",
    "specificity_rank",
    "tag_string",
    "tag_structure",
    "write_ptb",
]
