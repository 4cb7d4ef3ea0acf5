"""Tests of the benchmark's own parts: the program generator, the reference
evaluator and output check, the coverage area and the tracer.

    python3 -m pytest benchmarks -q
"""

import json
import random
from collections import Counter

import pytest

import genprog
import refcheck
import run
from frontierfuzz import builtin_targets, campaign, mutation
from frontierfuzz.target import Harness, load_program
from spans import Tracer

GEN_SEEDS = range(6)


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_documents_load_and_repeat(seed):
    doc = genprog.document(seed)
    assert genprog.document(seed) == doc
    program = load_program(doc)
    assert len(program.nodes) == genprog.NODES
    assert program.max_input_len == genprog.INPUT_LEN
    edges, bug = refcheck.Reference(doc).run(bytes(genprog.INPUT_LEN))
    assert (len(edges), bug) == (genprog.SPINE, None)


def test_generated_documents_differ_by_seed():
    assert len({genprog.document(seed) for seed in GEN_SEEDS}) == len(GEN_SEEDS)


def test_generated_documents_cover_every_node_kind():
    nodes = [n for seed in GEN_SEEDS for n in genprog.program(seed)["nodes"]]
    ints = [n for n in nodes if n["kind"] == "int"]
    assert {n["width"] for n in ints} == {1, 2, 4, 8}
    assert {n["endian"] for n in ints} == {"le", "be"}
    assert {n["signed"] for n in ints} == {False, True}
    extremes = {-(1 << 63), (1 << 63) - 1, (1 << 64) - 1}
    assert extremes & {n["constant"] for n in ints if n["width"] == 8}
    assert {n["kind"] for n in nodes} == {"int", "str", "xor", "bug"}
    for seed in GEN_SEEDS:
        doc = genprog.program(seed)
        parents = Counter(
            child for n in doc["nodes"] for child in (n.get("taken"), n.get("nottaken"))
            if child is not None
        )
        assert max(parents.values()) >= 2  # shared children
        assert sum(n["kind"] == "bug" for n in doc["nodes"]) == (
            genprog.SPINE_BUGS + genprog.SUBTREE_BUGS)


def _documents():
    yield from (builtin_targets.document(name) for name in builtin_targets.names())
    yield from (genprog.document(seed) for seed in GEN_SEEDS[:2])


@pytest.mark.parametrize("doc", list(_documents()))
def test_reference_agrees_with_harness(doc):
    program = load_program(doc)
    harness = Harness(program, synthetic_time=True)
    ref = refcheck.Reference(doc)
    assert ref.total_edges == program.total_edges
    rng = random.Random(0)
    n = program.max_input_len
    for _ in range(300):
        data = bytes(rng.choice((0, 1, 0x7F, 0x80, 0xFF, rng.randrange(256)))
                     for _ in range(rng.randint(0, n)))
        trace = harness.execute(data)
        edges, bug = ref.run(data)
        assert edges == list(trace.edges)
        assert trace.bug_hits == (() if bug is None else (bug,))


def _bug_chain_campaign():
    doc = builtin_targets.document("bug_chain")
    camp = campaign.Campaign(load_program(doc), [bytes(8)], campaign.Mode.FOX,
                             campaign.Budget(max_execs=4000), rng_seed=0)
    camp.run()
    assert camp.findings and len(camp.corpus) >= 2
    return refcheck.Reference(doc), camp


def test_output_check_accepts_a_real_campaign():
    ref, camp = _bug_chain_campaign()
    assert refcheck.check_campaign(ref, camp) == ([], {2})


def test_output_check_reports_a_tampered_corpus_entry():
    ref, camp = _bug_chain_campaign()
    entry = camp.corpus.entries[-1]
    camp.corpus.entries[-1] = campaign.CorpusEntry(bytes(8), entry.new_edges, entry.exec_index)
    problems, _ = refcheck.check_campaign(ref, camp)
    assert any(p.startswith(f"corpus entry {entry.exec_index}") for p in problems)


def test_output_check_reports_a_tampered_finding():
    ref, camp = _bug_chain_campaign()
    exec_index, _ = camp.findings[0]
    camp.findings[0] = (exec_index, bytes(8))
    problems, bugs = refcheck.check_campaign(ref, camp)
    assert problems == [f"finding {exec_index} reaches no bug node"]


def test_coverage_auc_is_the_area_under_the_stage_log():
    Record = type("Record", (), {})
    records = []
    for execs, edges in ((2, 1), (6, 3), (10, 4)):
        r = Record()
        r.execs, r.edges_covered = execs, edges
        records.append(r)
    # 0 edges over [0, 2), 1 over [2, 6), 3 over [6, 10), 4 over [10, 20).
    assert run.coverage_auc(records, 4, 20) == (4 + 12 + 40) / 80


def test_campaign_specs_depend_only_on_arguments():
    a = run.campaign_specs("gen-deep", 3, 1)
    assert a == run.campaign_specs("gen-deep", 3, 1)
    assert a != run.campaign_specs("gen-deep", 4, 1)
    programs = {s.program for s in a}
    assert len(programs) * len(run.WORKLOADS["gen-deep"].modes) == len(a)
    assert len({genprog.document(p) for p in programs}) == len(programs)


def test_tracer_patches_every_holder_and_restores_them():
    originals = (mutation.havoc_mutate, campaign.havoc_mutate, campaign.Campaign.run)
    tracer = Tracer()
    tracer.install([
        (mutation, "havoc_mutate", "mutation.havoc_mutate", None),
        (campaign.Campaign, "run", "campaign.run", None),
    ])
    try:
        assert mutation.havoc_mutate is campaign.havoc_mutate
        assert mutation.havoc_mutate is not originals[0]
        program = builtin_targets.load("magic32")
        camp = campaign.Campaign(program, [bytes(8)], campaign.Mode.BASE,
                                 campaign.Budget(max_execs=3000), rng_seed=0)
        camp.run()
    finally:
        tracer.uninstall()
    assert (mutation.havoc_mutate, campaign.havoc_mutate, campaign.Campaign.run) == originals
    assert tracer.calls("mutation.havoc_mutate") >= 3000 - 1
    assert tracer.calls("campaign.run") == 1
    run_agg = tracer.spans[("", "campaign.run", "")]
    havoc_agg = tracer.spans[("", "mutation.havoc_mutate", "campaign.run")]
    assert run_agg.self_ns == run_agg.total_ns - havoc_agg.total_ns
    assert tracer.median("mutation.havoc_mutate") > 0


def test_traced_run_reproduces_the_untraced_logs():
    specs = run.campaign_specs("suite-fox", 0, 1)[:8]
    outcomes = run.run_campaigns(specs)
    assert all(o.ok for o in outcomes)
    tracer, traced = run.traced_run(specs)
    assert run.log_digest(traced) == run.log_digest(outcomes)
    assert tracer.counter("mutation.root.execs") > 0
    assert tracer.calls("mutation.infer_hot_bytes") > 0
    # Runs made by local search are bookkeeping spans of their own.
    assert tracer.spans[("fox", "campaign.executor", "mutation.local_search")].calls > 0
    assert json.dumps(run.per_layer(tracer, traced, 0.5))
