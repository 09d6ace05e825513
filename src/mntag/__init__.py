"""Modality/negation tagging and semantic tree grafting.

The toolkit tags constituency parse trees (and POS-tagged token
sequences) with modality/negation triggers and targets from a lexicon,
and grafts such standoff annotations, together with named-entity
annotations, onto parse trees as label suffixes.

``import mntag`` loads no module of the package: a public name's module
is imported the first time the name is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Each module's public names, the one place they are spelled.
_PUBLIC = {
    "grafting": ("GraftConfig", "GraftReport", "SpanCase", "classify_span", "graft"),
    "lexicon": ("Lexicon", "LexiconEntry", "dump_lexicon", "load_lexicon", "lookup"),
    "matcher": ("Match", "PatternRule", "apply", "match", "parse_pattern", "parse_rules"),
    "rulegen": ("TemplateRegistry", "default_registry", "expand_templates", "preprocess"),
    "standoff": ("StandoffAnnotation",),
    "taggers": (
        "TaggedToken", "agreement", "parse_inline", "render_inline", "tag_string", "tag_structure",
    ),
    "tags": (
        "AnnotationChoice", "MenuChoice", "MNTag", "Modality", "Role", "TAG_INVENTORY",
        "compose_negation", "menu_choice_to_tags", "negate_proposition", "parse_tag",
        "specificity_rank",
    ),
    "trees": ("ParseTree", "Span", "flatten", "read_ptb", "write_ptb"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value
