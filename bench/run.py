"""mntag benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload corpus-x40 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.bench_run/`` and removed
afterwards.  Every output is checked before any number is reported.
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it runs the workload's `mn`
commands once untraced and once traced, and reports per-layer metrics
from the spans, which it also writes to ``.bench_run/``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, Rescaler, Segment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

#: Per-sentence latency samples a run takes at least, so that ten lie
#: beyond p95; the loop repeats within a round until there are enough.
MIN_SAMPLES = 200

#: Time to import the CLI and, for tag workloads, load the lexicon and
#: registry and expand the templates: what `mn` pays before sentence 0.
#: Then one reference timing, to rescale it by.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import mntag.cli
from mntag import lexicon, rulegen
if len(sys.argv) > 3:
    rulegen.expand_templates(lexicon.load_lexicon_file(sys.argv[3]), rulegen.default_registry())
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from speed import reference_seconds
print(repr(seconds), repr(reference_seconds()))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import mntag from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mntag.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mntag from {SRC}: {exc}")
    if not Path(mntag.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: mntag was imported from {mntag.cli.__file__}, not {SRC}")
    return mntag.cli


class Run:
    """Counts and checks shared by both kinds of run."""

    def __init__(self, cli, plan):
        self.cli = cli
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rescaler = Rescaler()

    def mn(self, argv) -> Segment:
        """One `mn` run, timed."""
        self.attempted += 1
        segment = Segment(self.rescaler)
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one more failed run; report it and go on
            traceback.print_exc()
            code = "an uncaught exception"
        segment.stop()
        if code != 0:
            self.failed += 1
            self.errors.append(f"mn {argv[0]} exited {code}")
        return segment

    def run_commands(self) -> list[Segment]:
        """Every command of the workload once, each output checked."""
        segments = []
        for cmd in self.plan.commands:
            segments.append(self.mn(cmd.argv))
            if not self.errors:
                error = cmd.check()
                if error:
                    self.errors.append(error)
        return segments

    def gate_runs(self) -> None:
        for argv in self.plan.gate_runs:
            self.mn(argv)


def measure_setup(lexicon: Path | None) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, raw and rescaled."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH)]
    if lexicon is not None:
        argv.append(str(lexicon))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup child failed: {done.stderr.strip()}")
        seconds, reference = map(float, done.stdout.split())
        times.append((seconds, seconds * REFERENCE_S / reference))
    return times


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_untraced(run: Run, seconds: float, workloads) -> dict:
    setup = measure_setup(run.plan.setup_lexicon)
    run.gate_runs()
    rounds: list[list[Segment]] = []  # the `mn` runs of each round
    sentences: list[list[Segment]] = []  # per sentence and round: its calls
    began = time.perf_counter()
    with run.rescaler:
        while not run.errors:
            rounds.append(run.run_commands())
            while not run.errors:
                loop = workloads.sentence_loop(run.plan.commands, run.rescaler)
                run.attempted += loop.attempted
                run.failed += loop.failed
                if loop.error or loop.failed:
                    run.errors.append(loop.error or f"{loop.failed} sentences raised")
                sentences.extend(loop.segments)
                if len(sentences) >= MIN_SAMPLES:
                    break
            elapsed = time.perf_counter() - began
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    if run.errors:
        return {}
    print(f"rounds: {len(rounds)}; sentence samples: {len(sentences)}; "
          f"setup samples: {len(setup)}; reference timings: {len(run.rescaler.seconds)}")
    n = sum(cmd.sentences for cmd in run.plan.commands)

    def summary(duration, setup_s: list[float]) -> dict:
        ms = sorted(1000 * sum(map(duration, calls)) for calls in sentences)
        return {
            "cli_sent_per_s": (statistics.median(n / sum(map(duration, r)) for r in rounds), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "sent_p50_ms": (percentile(ms, 0.50), "ms"),
            "sent_p95_ms": (percentile(ms, 0.95), "ms"),
        }

    raw = summary(lambda segment: segment.seconds, [t for t, _ in setup])
    for name, (value, unit) in raw.items():
        print(f"raw {name}: {value:.6g} {unit}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**summary(Segment.rescaled, [t for _, t in setup]), "peak_rss_mb": (rss, "MB")}


def run_traced(run: Run, spans_path: Path) -> dict:
    from mntag.grafting import OUTCOMES
    from tracing import Tracer, count_leaves, count_nodes

    run.gate_runs()
    untraced = [segment.seconds for segment in run.run_commands()]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run.run_commands()
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.remove()
    if run.errors:
        return {}
    tracer.write(spans_path)
    print(f"spans: {len(tracer.func)} written to {spans_path.relative_to(ROOT)}")

    s = tracer.summary()
    c = tracer.counts
    calls = {k: v[0] for k, v in s.items()}
    incl = {k: v[1] for k, v in s.items()}
    layer_self: dict[str, float] = {}
    for key, (_, _, own) in s.items():
        layer = key.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    # Trace completeness: counts at independent boundaries must agree.
    expected_match = c["taggers.rules_tried"] + c["matcher.rewrites"]
    if calls["matcher.match"] != expected_match:
        run.errors.append(f"trace: {calls['matcher.match']} match calls, expected {expected_match}")
    if c["matcher.rewrites"] != c["taggers.fired_rules"]:
        run.errors.append("trace: rewrites seen by apply differ from the tagger's fired rules")
    padded_hits = [r for r in tracer.rule_hits if r.split(":", 1)[1] in run.plan.padded_surfaces]
    if padded_hits:
        run.errors.append(f"trace: padded-lexicon rules matched: {padded_hits[:3]}")
    graft_runs = sum(1 for cmd in run.plan.commands if cmd.kind == "graft")
    if c["grafting.annotations"] != run.plan.annotations * graft_runs:
        run.errors.append("trace: graft saw a different number of annotations than the input")
    if run.errors:
        return {}

    read_trees = [t for result in tracer.read_results for t in result]
    tokens_read = sum(count_leaves(t) for t in read_trees)
    nodes_visited = sum(
        n * count_nodes(t) for t, n in zip(tracer.match_trees, tracer.match_tree_calls)
    )
    outcomes = dict.fromkeys(OUTCOMES, 0)
    for report in tracer.graft_reports:
        for kind, n in report.counts.items():
            outcomes[kind] += n
    annotations = c["grafting.annotations"]
    landed = annotations - outcomes["crossing-skipped"] - outcomes["dropped-uncomposable"]

    def ratio(a, b):
        return a / b if b else 0.0

    rate = {cmd.kind: cmd.sentences / wall for cmd, wall in zip(run.plan.commands, untraced)}

    m = {
        "trees.read_s": (incl["trees.read_ptb"], "s"),
        "trees.read_tok_per_s": (ratio(tokens_read, incl["trees.read_ptb"]), "1/s"),
        "trees.flatten_s": (incl["trees.flatten"], "s"),
        "trees.write_s": (incl["trees.write_ptb"], "s"),
        "trees.nodes": (sum(count_nodes(t) for t in read_trees), "count"),
        "trees.self_s": (layer_self["trees"], "s"),
        "lexicon.load_s": (incl["lexicon.load_lexicon_file"], "s"),
        "lexicon.entries": (c["lexicon.entries"], "count"),
        "lexicon.lookup_calls": (calls["lexicon.lookup"], "count"),
        "lexicon.lookup_s": (incl["lexicon.lookup"], "s"),
        "lexicon.lookup_hit_ratio": (ratio(c["lexicon.lookup_hits"], calls["lexicon.lookup"]), "ratio"),
        "lexicon.self_s": (layer_self["lexicon"], "s"),
        "rulegen.expand_s": (incl["rulegen.expand_templates"], "s"),
        "rulegen.rules": (c["rulegen.rules"], "count"),
        "rulegen.parse_pattern_calls": (calls["matcher.parse_pattern"], "count"),
        "rulegen.preprocess_s": (incl["rulegen.preprocess"], "s"),
        "rulegen.word_spans_calls": (calls["rulegen.word_spans"], "count"),
        "rulegen.word_spans_s": (incl["rulegen.word_spans"], "s"),
        "rulegen.self_s": (layer_self["rulegen"], "s"),
        "matcher.apply_calls": (calls["matcher.apply"], "count"),
        "matcher.apply_s": (incl["matcher.apply"], "s"),
        "matcher.match_calls": (calls["matcher.match"], "count"),
        "matcher.match_s": (incl["matcher.match"], "s"),
        "matcher.match_hit_ratio": (
            ratio(sum(tracer.rule_hits.values()), calls["matcher.match"]), "ratio"
        ),
        "matcher.rewrites": (c["matcher.rewrites"], "count"),
        "matcher.nodes_visited": (nodes_visited, "count"),
        "matcher.self_s": (layer_self["matcher"], "s"),
        "taggers.tag_structure_s": (incl["taggers.tag_structure"], "s"),
        "taggers.tag_structure_self_s": (s["taggers.tag_structure"][2], "s"),
        "taggers.fold_markers_s": (incl["taggers.fold_markers"], "s"),
        "taggers.tag_string_s": (incl["taggers.tag_string"], "s"),
        "taggers.annotations": (c["taggers.annotations"], "count"),
        "taggers.fired_rules": (c["taggers.fired_rules"], "count"),
        "taggers.self_s": (layer_self["taggers"], "s"),
        "tags.parse_tag_calls": (calls["tags.parse_tag"], "count"),
        "tags.parse_tag_s": (incl["tags.parse_tag"], "s"),
        "tags.self_s": (layer_self["tags"], "s"),
        "grafting.graft_s": (incl["grafting.graft"], "s"),
        "grafting.annotations": (annotations, "count"),
        **{f"grafting.outcome.{k}": (n, "count") for k, n in outcomes.items()},
        "grafting.grafted_ratio": (ratio(landed, annotations), "ratio"),
        "grafting.self_s": (layer_self["grafting"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.tag_sent_per_s": (rate.get("tag", 0.0), "1/s"),
        "cli.string_tag_sent_per_s": (rate.get("string", 0.0), "1/s"),
        "cli.graft_sent_per_s": (rate.get("graft", 0.0), "1/s"),
        "trace.spans": (len(tracer.func), "count"),
        "trace.untraced_s": (sum(untraced), "s"),
        "trace.traced_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - sum(untraced), "s"),
    }
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Diagnostics the CLI logs per sentence go to a file, as `2> file` would.
    log_file = open(work / "mn.log", "w", encoding="utf-8")
    handler = logging.StreamHandler(log_file)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logging.root.addHandler(handler)
    logging.root.setLevel(logging.INFO)
    try:
        plan = workloads.prepare(args.workload, args.seed, work)
        run = Run(cli, plan)
        if args.trace:
            spans = RUNS / f"spans-{args.workload}.tsv"
            metrics = run_traced(run, spans)
        else:
            metrics = run_untraced(run, args.seconds, workloads)
    finally:
        logging.root.removeHandler(handler)
        log_file.close()
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.errors and run.failed == 0
    for error in run.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print(f"failed_ratio: {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed} of {run.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}" if isinstance(value, float) else f"{name}: {value} {unit}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
