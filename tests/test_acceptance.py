"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time

import pytest

from uniparse.config import EngineConfig
from uniparse.corpus import (
    CorpusSpec,
    gen_corpus,
    grouping_f1,
    order_edit_distance,
)
from uniparse.dispatch import ROUTE_TABLE
from uniparse.docmodel import SemanticCategory as C, validate_document
from uniparse.engine import analyze_pages, process_document
from uniparse.experts import default_descriptors
from uniparse.formats import chunk, chunks_to_jsonl, to_html, to_markdown, to_structured
from uniparse.layout import build_page_tree, group_pairs
from uniparse.ordering import group_cluster
from uniparse.payloads import INLINE_MARKER, TableGrid, Text, payload_text, render_inline
from uniparse.runtime import (
    Mode,
    PipelineConfig,
    contention_free_config,
    run_pipeline,
    simulate_scaling,
)

from conftest import det, detections_by_id, reading_order, strip_group_hints

CFG = EngineConfig()

# ~200 pages: 100 documents of 1-3 pages (seeded), the reference evaluation corpus.
REFERENCE_SPEC = dict(n_docs=100, pages_min=1, pages_max=3, columns=2)


def _mean_edit_distance(docs, truth):
    dists = []
    for doc in docs:
        analyses = analyze_pages(doc, CFG)
        for analysis, page_truth in zip(analyses, truth.docs[doc.doc_id].pages):
            pred = [u.unit_id for u in analysis.units]
            dists.append(order_edit_distance(pred, page_truth.order))
    return sum(dists) / len(dists), len(dists)


@pytest.fixture(scope="module")
def clean_corpus():
    return gen_corpus(CorpusSpec(seed=0, **REFERENCE_SPEC))


@pytest.fixture(scope="module")
def processed_clean(clean_corpus):
    docs, _truth = clean_corpus
    return {doc.doc_id: process_document(doc, CFG) for doc in docs}


@pytest.fixture(scope="module")
def simulated_modes():
    docs, _ = gen_corpus(CorpusSpec(seed=0, **REFERENCE_SPEC))
    out = {}
    for mode in Mode:
        config = PipelineConfig(mode=mode, engine=EngineConfig(), seed=0)
        outputs, metrics = run_pipeline(docs, config)
        out[mode] = ([to_structured(p) for p in outputs], metrics)
    return out


def test_criterion_1_reading_order_exactness(clean_corpus):
    started = time.perf_counter()
    docs, truth = clean_corpus
    mean, pages = _mean_edit_distance(docs, truth)
    elapsed = time.perf_counter() - started
    assert pages >= 200
    assert mean == 0.0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: mean edit distance {mean} over {pages} pages "
          f"in {elapsed:.1f}s (< 30s)")


def test_criterion_2_reading_order_robustness():
    means = {}
    for sigma in (0.0, 0.005, 0.02):
        docs, truth = gen_corpus(CorpusSpec(seed=0, jitter_sigma=sigma, **REFERENCE_SPEC))
        means[sigma], _ = _mean_edit_distance(docs, truth)
    assert means[0.005] <= 0.05
    assert means[0.0] <= means[0.005] <= means[0.02]
    print(f"ACCEPTANCE 2 PASS: mean edit distance {means[0.005]:.4f} <= 0.05 at "
          f"sigma=0.005; monotone {means[0.0]:.4f} <= {means[0.005]:.4f} <= {means[0.02]:.4f}")


def test_criterion_3_grouping_quality(clean_corpus):
    docs, truth = clean_corpus
    truth_pairs = {
        frozenset(p)
        for doc_truth in truth.docs.values()
        for page in doc_truth.pages
        for p in page.groups
    }
    with_hints = set()
    geometry_only = set()
    for doc in docs:
        for analysis in analyze_pages(doc, CFG):
            with_hints.update(frozenset(p) for p in group_pairs(analysis.tree))
        for analysis in analyze_pages(strip_group_hints(doc), CFG):
            geometry_only.update(frozenset(p) for p in group_pairs(analysis.tree))
    _p, _r, f1_hints = grouping_f1(with_hints, truth_pairs)
    _p2, _r2, f1_geo = grouping_f1(geometry_only, truth_pairs)
    assert f1_hints == 1.0
    assert f1_geo >= 0.95
    print(f"ACCEPTANCE 3 PASS: pairing F1 with hints {f1_hints}, "
          f"geometry-only {f1_geo:.4f} (>= 0.95)")


def test_criterion_4_placeholder_round_trip(clean_corpus, processed_clean):
    docs, truth = clean_corpus
    emitted = resolved = failed = parents = mismatched = 0
    for doc in docs:
        result = processed_clean[doc.doc_id]
        parsed = result.parsed
        emitted += parsed.tokens_emitted
        resolved += parsed.tokens_resolved
        failed += parsed.tokens_failed
        for emission in (to_structured(parsed), to_markdown(parsed), to_html(parsed),
                         chunks_to_jsonl(chunk(parsed, 256))):
            assert "[[UPH:" not in emission
        # every inline payload lands exactly where the source recorded it
        dets = detections_by_id(doc)
        for record in truth.docs[doc.doc_id].inline:
            parents += 1
            parent = dets[record.parent_id]
            got = result.gathered.resolved[record.parent_id]
            if isinstance(got, Text):
                expected = parent.truth_text
                for child_id in record.child_ids:
                    expected = expected.replace(
                        INLINE_MARKER, render_inline(dets[child_id].truth_payload), 1
                    )
                ok = expected == got.value
            else:
                expected = payload_text(parent.truth_payload)
                for child_id in record.child_ids:
                    expected = expected.replace(
                        INLINE_MARKER, render_inline(dets[child_id].truth_payload), 1
                    )
                ok = expected == payload_text(got)
            mismatched += 0 if ok else 1
    assert emitted == resolved + failed
    assert failed == 0
    assert emitted > 0
    assert mismatched == 0
    print(f"ACCEPTANCE 4 PASS: {emitted} tokens emitted = {resolved} resolved "
          f"(+{failed} failed); {parents} inline parents all at recorded positions")


def test_criterion_5_cross_page_consolidation():
    import re

    def canon(text):
        return re.sub(r"[\s-]+", "", text)

    docs, truth = gen_corpus(
        CorpusSpec(seed=0, n_docs=60, pages_min=2, pages_max=3,
                   cross_page_split_prob=1.0)
    )
    tables = tables_merged = paragraphs = paragraphs_merged = 0
    for doc in docs:
        parsed = process_document(doc, CFG).parsed
        dets = detections_by_id(doc)
        hosts = {}
        for item in parsed.iter_items():
            hosts[item.item_id] = item
            for mid in item.merged_ids:
                hosts[mid] = item
        for merge in truth.docs[doc.doc_id].merges:
            host = hosts.get(merge.first_id)
            merged_ok = host is not None and merge.second_id in host.merged_ids
            if merge.kind == "table":
                tables += 1
                assert merged_ok, (doc.doc_id, merge)
                first = dets[merge.first_id].truth_payload
                second = dets[merge.second_id].truth_payload
                assert isinstance(host.payload, TableGrid)
                assert len(host.payload.cells) == len(first.cells) + len(second.cells)
                tables_merged += 1
            elif merge.kind == "paragraph":
                paragraphs += 1
                assert merged_ok, (doc.doc_id, merge)
                joined = canon(dets[merge.first_id].truth_text
                               + dets[merge.second_id].truth_text)
                assert joined in canon(host.payload.value)
                paragraphs_merged += 1
    assert tables and tables_merged == tables
    assert paragraphs and paragraphs_merged == paragraphs
    print(f"ACCEPTANCE 5 PASS: {tables_merged}/{tables} split tables merged with cell "
          f"conservation; {paragraphs_merged}/{paragraphs} split paragraphs merged")


def test_criterion_6_mode_throughput_ordering(simulated_modes):
    seq = simulated_modes[Mode.SEQUENTIAL][1]
    par = simulated_modes[Mode.PARALLEL_GATHER][1]
    pipe = simulated_modes[Mode.PIPELINE_PARALLEL][1]
    assert pipe.throughput_pps >= 1.5 * seq.throughput_pps
    assert pipe.throughput_pps >= 1.1 * par.throughput_pps
    assert pipe.bubble_fraction < par.bubble_fraction
    assert pipe.bubble_fraction < seq.bubble_fraction
    print(f"ACCEPTANCE 6 PASS: throughput pipe {pipe.throughput_pps:.2f} >= "
          f"1.5x seq {seq.throughput_pps:.2f} and 1.1x par {par.throughput_pps:.2f}; "
          f"bubbles pipe {pipe.bubble_fraction:.3f} < par {par.bubble_fraction:.3f}"
          f" < seq {seq.bubble_fraction:.3f}")


def test_criterion_7_near_linear_scaling():
    docs, _ = gen_corpus(CorpusSpec(seed=0, n_docs=60, pages_min=1, pages_max=3))
    report = simulate_scaling(docs, [1, 2, 4, 8], contention_free_config(seed=0, max_workers=8))
    assert report.r_squared >= 0.98
    assert report.efficiency >= 0.8
    points = ", ".join(f"{p.workers}w={p.throughput_pps:.1f}" for p in report.points)
    print(f"ACCEPTANCE 7 PASS: scaling {points}; R^2={report.r_squared:.4f} (>= 0.98), "
          f"efficiency@8={report.efficiency:.3f} (>= 0.8)")


def test_criterion_8_determinism_and_schedule_independence(simulated_modes):
    docs, _ = gen_corpus(CorpusSpec(seed=0, **REFERENCE_SPEC))
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=EngineConfig(), seed=0)
    out1, m1 = run_pipeline(docs, config)
    out2, m2 = run_pipeline(docs, config)
    dumps1 = [to_structured(p) for p in out1]
    assert dumps1 == [to_structured(p) for p in out2]
    assert m1 == m2
    # identical canonical dumps across the three modes
    seq_dumps = simulated_modes[Mode.SEQUENTIAL][0]
    assert seq_dumps == simulated_modes[Mode.PARALLEL_GATHER][0]
    assert seq_dumps == simulated_modes[Mode.PIPELINE_PARALLEL][0]
    assert seq_dumps == dumps1
    # and across worker counts
    for workers in (2, 8):
        config_n = PipelineConfig(mode=Mode.PIPELINE_PARALLEL,
                                  engine=EngineConfig(workers=workers), seed=0)
        out_n, _ = run_pipeline(docs, config_n)
        assert dumps1 == [to_structured(p) for p in out_n]
    print("ACCEPTANCE 8 PASS: byte-identical dumps and metrics across runs, "
          "modes, and worker counts")


def test_criterion_9_invariant_suites_and_fuzz(clean_corpus):
    # routing totality
    assert set(ROUTE_TABLE) == set(C)

    # corpus documents break no IR rule
    docs, _ = clean_corpus
    for doc in docs[:20]:
        validate_document(doc)

    # layout conservation + depth bound + ordering permutation over 10,000
    # random pages; determinism spot-checked along the way
    rng = random.Random(20240)
    categories = [C.PARAGRAPH, C.TABLE, C.IMAGE, C.MOLECULE, C.FORMULA, C.CAPTION,
                  C.HEADER, C.FIGURE, C.FORMULA_INLINE, C.DIVIDER_LINE]
    pages = 10_000
    for i in range(pages):
        n = rng.randint(0, 10)
        detections = []
        for j in range(n):
            x0 = rng.uniform(0.0, 0.85)
            y0 = rng.uniform(0.0, 0.85)
            w = rng.uniform(0.02, 0.15)
            h = rng.uniform(0.01, 0.12)
            detections.append(
                det(f"b{j}", (x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0)),
                    rng.choice(categories))
            )
        tree = build_page_tree(0, detections)
        assert tree.detection_count() == n
        for node in tree.top_items():
            for child in node.children:
                assert not child.children
        order = reading_order(tree)
        expected = sorted(u.unit_id for u in group_cluster(tree))
        assert sorted(order) == expected
        if i % 1000 == 0:
            assert reading_order(tree) == order

    # queue capacity respected under pressure (re-checked here at suite level)
    from uniparse.runtime import run_pipeline as _run

    docs_small, _ = gen_corpus(CorpusSpec(seed=1, n_docs=6, pages_min=1, pages_max=2))
    config = PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL,
        engine=EngineConfig(queue_capacity=4, max_batch=16),
        seed=1,
    )
    _outs, metrics = _run(docs_small, config)
    assert all(depth <= 4 for depth in metrics.max_queue_depth.values())
    assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed
    print(f"ACCEPTANCE 9 PASS: invariant batteries green; {pages} fuzzed pages "
          "raised no violation")
