"""The benchmark's tracer must fit the program: its traced function list
must name functions that exist, and the counts its trace check compares
must agree on a real run, so that a rename, a deletion or a change to
``apply``'s callback fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

from conftest import DATA
from mntag import cli, taggers

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS
    for key in tracing.FUNCTIONS:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module(f"mntag.{module}"), name, None)), key


def test_trace_check_identities_hold_on_tag_and_graft(tmp_path):
    """The identities ``bench/run.py --trace 1`` checks: match calls are
    the rules offered plus the rewrites, every rewrite is a fired rule,
    and graft sees every input annotation."""
    tracer = _load_tracing().Tracer()
    standoffs = [DATA / "golden_standoff.tsv", DATA / "ne_sample.tsv"]
    tracer.install()
    try:
        assert cli.main([
            "tag", "--mode", "structure", "--lexicon", cli.seed_lexicon_path(),
            "--in", str(DATA / "corpus_trees.ptb"), "--out", str(tmp_path / "tagged.ptb"),
        ]) == 0
        assert cli.main([
            "graft", "--trees", str(DATA / "corpus_trees.ptb"),
            *(arg for path in standoffs for arg in ("--standoff", str(path))),
            "--out", str(tmp_path / "grafted.ptb"), "--report", str(tmp_path / "report.txt"),
        ]) == 0
    finally:
        tracer.remove()
    counts = tracer.counts
    match_calls = tracer.summary()["matcher.match"][0]
    assert counts["matcher.rewrites"] > 0
    assert match_calls == counts["taggers.rules_tried"] + counts["matcher.rewrites"]
    assert counts["matcher.rewrites"] == counts["taggers.fired_rules"]
    annotations = sum(len(taggers.parse_standoff(path.read_text())) for path in standoffs)
    assert counts["grafting.annotations"] == annotations
