"""Span tracing around the program's public functions, from outside.

``Tracer.install`` replaces each traced function in every ``mntag``
module that binds it, which is where its callers look the name up
(``mntag.matcher.match`` for ``apply``, ``mntag.grafting.parse_tag``
for graft, ...).  No file of the program is edited.  Each call becomes
a span (function, start, end, parent span, sentence id) kept in flat
arrays; ``Tracer.remove`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: Traced functions as ``module.function``; the module names the layer.
FUNCTIONS = (
    "cli.main",
    "trees.read_ptb",
    "trees.flatten",
    "trees.write_ptb",
    "lexicon.load_lexicon_file",
    "lexicon.lookup",
    "rulegen.expand_templates",
    "matcher.parse_pattern",
    "rulegen.preprocess",
    "rulegen.word_spans",
    "matcher.apply",
    "matcher.match",
    "taggers.tag_structure",
    "taggers.fold_markers",
    "taggers.tag_string",
    "tags.parse_tag",
    "grafting.graft",
)

#: Calls that begin the work on a new sentence in some `mn` command.
_SENTENCE_START = frozenset(["trees.flatten", "taggers.tag_string", "grafting.graft"])


class Tracer:
    def __init__(self) -> None:
        self.func = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sentence = array("i")
        self._stack: list[int] = []
        self._sentence = -1
        self._patches: list[tuple[object, str, object]] = []
        # Counts taken at the span boundaries.
        self.counts: Counter[str] = Counter()
        self.rule_hits: Counter[str] = Counter()
        self.read_results: list[list] = []
        self.match_trees: list = []  # distinct trees passed to match, in call order
        self.match_tree_calls: list[int] = []
        self.graft_reports: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "mntag" or name.startswith("mntag.")
        }
        for ix, key in enumerate(FUNCTIONS):
            module, name = key.split(".")
            original = getattr(modules[f"mntag.{module}"], name)
            wrapper = self._wrap(ix, key, original)
            for mod in modules.values():
                if getattr(mod, name, None) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def remove(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def _wrap(self, ix: int, key: str, fn):
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        before = getattr(self, "_before_" + key.replace(".", "_"), None)
        starts_sentence = key in _SENTENCE_START
        stack = self._stack
        func, start, end, parent, sentence = (
            self.func, self.start, self.end, self.parent, self.sentence,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and func[stack[-1]] == ix:
                return fn(*args, **kwargs)  # recursion inside one traced call
            if before is not None:
                kwargs = before(kwargs)
            if starts_sentence:
                self._sentence += 1
            i = len(func)
            func.append(ix)
            parent.append(stack[-1] if stack else -1)
            sentence.append(self._sentence)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- boundary counters --------------------------------------------------

    def _before_cli_main(self, kwargs):
        self._sentence = -1
        return kwargs

    def _after_trees_read_ptb(self, result, args):
        self.read_results.append(result)

    def _after_lexicon_load_lexicon_file(self, result, args):
        self.counts["lexicon.entries"] = len(result.entries)

    def _after_lexicon_lookup(self, result, args):
        if result:
            self.counts["lexicon.lookup_hits"] += 1

    def _after_rulegen_expand_templates(self, result, args):
        self.counts["rulegen.rules"] = len(result)

    def _before_matcher_apply(self, kwargs):
        callback = kwargs.get("on_rewrite")
        if callback is None:
            return kwargs
        counts = self.counts

        def on_rewrite(m, before):
            counts["matcher.rewrites"] += 1
            return callback(m, before)

        return {**kwargs, "on_rewrite": on_rewrite}

    def _after_matcher_match(self, result, args):
        rule, tree = args[0], args[1]
        if result:
            self.rule_hits[rule.name] += 1
        if self.match_trees and self.match_trees[-1] is tree:
            self.match_tree_calls[-1] += 1
        else:
            self.match_trees.append(tree)
            self.match_tree_calls.append(1)

    def _after_taggers_tag_structure(self, result, args):
        self.counts["taggers.rules_tried"] += len(args[1])
        self.counts["taggers.fired_rules"] += len(result.fired_rules)
        self.counts["taggers.annotations"] += len(result.annotations)

    def _after_taggers_tag_string(self, result, args):
        self.counts["taggers.annotations"] += len(result.annotations)

    def _after_grafting_graft(self, result, args):
        self.counts["grafting.annotations"] += len(args[1])
        self.graft_reports.append(result[1])

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per function: (calls, inclusive seconds, self seconds)."""
        n = len(self.func)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(FUNCTIONS)
        total = [0.0] * len(FUNCTIONS)
        own = [0.0] * len(FUNCTIONS)
        for i in range(n):
            f = self.func[i]
            calls[f] += 1
            total[f] += dur[i]
            own[f] += dur[i] - child[i]
        return {key: (calls[f], total[f], own[f]) for f, key in enumerate(FUNCTIONS)}

    def write(self, path: Path) -> None:
        """Spans as TSV: function, start and end in ns from the first
        span, parent span (row number from 0, -1 for none), sentence."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("function\tstart_ns\tend_ns\tparent\tsentence\n")
            for i in range(len(self.func)):
                fh.write(
                    f"{FUNCTIONS[self.func[i]]}\t{round((self.start[i] - t0) * 1e9)}"
                    f"\t{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t{self.sentence[i]}\n"
                )


def count_nodes(tree) -> int:
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def count_leaves(tree) -> int:
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(node.children)
        else:
            n += 1
    return n

