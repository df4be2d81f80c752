from __future__ import annotations

import dataclasses
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import uniparse.engine
from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import BoundingBox, Detection, DocumentIR, PageIR, SemanticCategory as C
from uniparse.engine import MockBackend, StrictModeFailure, analyze_and_plan, process_document
from uniparse.experts import (
    DocumentStore,
    ExpertDescriptor,
    ExpertResponse,
    LatencyModel,
    ProtocolError,
    RetryableExpertError,
    default_descriptors,
)
from uniparse.formats import to_structured
from uniparse.payloads import Text
from uniparse.runtime import (
    Mode,
    PipelineConfig,
    balance,
    bubble_report,
    compare_modes,
    contention_free_config,
    run_pipeline,
    simulate_scaling,
)

from conftest import det, one_page_doc


def ocr_only_doc(doc_id: str, n_paragraphs: int) -> DocumentIR:
    detections = tuple(
        Detection(
            id=f"{doc_id}b{i}",
            page_index=0,
            box=BoundingBox(0.1, 0.05 + i * 0.09, 0.9, 0.05 + i * 0.09 + 0.05),
            category=C.PARAGRAPH,
            confidence=0.9,
            truth_text=f"paragraph {i} text.",
        )
        for i in range(n_paragraphs)
    )
    return DocumentIR(doc_id=doc_id, pages=(PageIR(0, 612.0, 792.0, detections),))


def bare_engine(**overrides) -> EngineConfig:
    # all CPU stage costs pinned for hand-computable makespans
    base = dict(
        workers=2,
        preprocess_ms_per_page=4.0,
        layout_ms_per_page=10.0,
        dispatch_ms_per_task=0.2,
        gather_ms_per_task=0.05,
        gather_ms_per_doc=2.0,
        consolidate_ms_per_doc=3.0,
        format_ms_per_doc=3.0,
        max_batch=4,
        max_wait_ms=25.0,
    )
    base.update(overrides)
    return EngineConfig(**base)


def ocr_experts(base=10.0, per_item=2.0, replicas=2, failure_rate=0.0, seed=0):
    table = default_descriptors(max_batch=4, replicas=replicas, seed=seed,
                                failure_rate=failure_rate)
    table["ocr"] = ExpertDescriptor(
        "ocr", max_batch=4, latency=LatencyModel(base, per_item, jitter_seed=seed),
        replicas=replicas, failure_rate=failure_rate,
    )
    return table


# --- balance -----------------------------------------------------------------


def test_balance_greatest_depth_per_replica():
    # ratio oracle: ocr 10/2 = 5.0 beats formula 4/1 = 4.0
    assert balance({"ocr": 10, "formula": 4}, {"ocr": 2, "formula": 1}) == "ocr"


def test_balance_single_nonempty_queue():
    assert balance({"ocr": 0, "formula": 3}, {"ocr": 2, "formula": 1}) == "formula"


def test_balance_tie_is_lexicographic():
    assert balance({"b": 4, "a": 4}, {"a": 2, "b": 2}) == "a"


def test_balance_respects_replica_cap():
    depths = {"ocr": 10, "formula": 1}
    replicas = {"ocr": 2, "formula": 1}
    assert balance(depths, replicas, in_flight={"ocr": 2, "formula": 0}) == "formula"
    assert balance(depths, replicas, in_flight={"ocr": 2, "formula": 1}) is None


# --- hand-computed makespans (discrete-event oracle) ---------------------------


def expected_sequential_wall(docs, engine, base, per_item):
    total = 0.0
    for n_tasks in docs:
        total += engine.preprocess_ms_per_page + engine.layout_ms_per_page
        total += engine.dispatch_ms_per_task * n_tasks
        full, rest = divmod(n_tasks, 4)
        for _ in range(full):
            total += base + per_item * 4
        if rest:
            total += base + per_item * rest
        total += engine.gather_ms_per_doc + engine.gather_ms_per_task * n_tasks
        total += engine.consolidate_ms_per_doc + engine.format_ms_per_doc
    return total


def test_sequential_wall_matches_oracle():
    docs = [ocr_only_doc("a", 8), ocr_only_doc("b", 5)]
    engine = bare_engine()
    config = PipelineConfig(mode=Mode.SEQUENTIAL, engine=engine, experts=ocr_experts())
    _outputs, metrics = run_pipeline(docs, config)
    expected = expected_sequential_wall([8, 5], engine, 10.0, 2.0)
    assert metrics.wall_ms == pytest.approx(expected)


def test_sequential_worker_serves_next_batch_during_backoff(monkeypatch):
    # 8 tasks -> two batches of 4 at 18 ms; the first call fails retryably.
    # The one worker serves the second batch while the first backs off
    # (backoff_ms 10 < 18 ms), so the experts add exactly 3 x 18 ms.
    real_process = MockBackend.process
    calls = []

    def flaky_first_call(self, modality, batch, attempt=0):
        calls.append(attempt)
        if len(calls) == 1:
            raise RetryableExpertError("first call fails")
        return real_process(self, modality, batch, attempt)

    monkeypatch.setattr(MockBackend, "process", flaky_first_call)
    engine = bare_engine()
    assert engine.backoff_ms < 18.0
    config = PipelineConfig(mode=Mode.SEQUENTIAL, engine=engine, experts=ocr_experts())
    _outputs, metrics = run_pipeline([ocr_only_doc("a", 8)], config)
    assert calls == [0, 0, 1]
    assert metrics.retries == 1 and metrics.tasks_completed == 8
    batch_ms = 10.0 + 2.0 * 4
    expected = expected_sequential_wall([8], engine, 10.0, 2.0) + batch_ms
    assert metrics.wall_ms == pytest.approx(expected)


def header_only_doc(doc_id: str) -> DocumentIR:
    # a running header is never sent to an expert: the plan has no tasks
    return one_page_doc([det(f"{doc_id}h", (0.1, 0.02, 0.9, 0.05), C.HEADER,
                             truth_text="running head")], doc_id=doc_id)


@pytest.mark.parametrize("mode", list(Mode))
def test_document_without_tasks_between_ocr_documents(mode):
    docs = [ocr_only_doc("a", 6), header_only_doc("z"), ocr_only_doc("b", 5),
            header_only_doc("z2")]
    engine = bare_engine()
    experts = ocr_experts()
    outs, metrics = run_pipeline(docs, PipelineConfig(mode=mode, engine=engine, experts=experts))
    assert metrics.tasks_dispatched == metrics.tasks_completed == 11
    assert metrics.tasks_failed == 0
    backend = MockBackend(DocumentStore(docs), experts)
    expected = [to_structured(process_document(d, engine, backend).parsed) for d in docs]
    assert [to_structured(p) for p in outs] == expected
    if mode is not Mode.PIPELINE_PARALLEL:
        # one document in flight: the task-less one pays preprocess 4 +
        # layout 10 + dispatch 0 + gather 2 + consolidate 3 + format 3
        done = metrics.doc_latency_ms
        assert done["z"] - done["a"] == pytest.approx(22.0)
        assert done["z2"] - done["b"] == pytest.approx(22.0)
        assert metrics.wall_ms == pytest.approx(done["z2"])


def test_parallel_gather_wall_matches_oracle():
    # 8 tasks -> two full batches of 4, run on two workers in parallel
    docs = [ocr_only_doc("a", 8)]
    engine = bare_engine(workers=2)
    config = PipelineConfig(mode=Mode.PARALLEL_GATHER, engine=engine, experts=ocr_experts())
    _outputs, metrics = run_pipeline(docs, config)
    batch_ms = 10.0 + 2.0 * 4
    expected = (
        engine.preprocess_ms_per_page + engine.layout_ms_per_page
        + engine.dispatch_ms_per_task * 8
        + batch_ms  # two batches overlap fully on two workers
        + engine.gather_ms_per_doc + engine.gather_ms_per_task * 8
        + engine.consolidate_ms_per_doc + engine.format_ms_per_doc
    )
    assert metrics.wall_ms == pytest.approx(expected)


def test_mode_ordering_on_stream():
    spec = CorpusSpec(seed=2, n_docs=30, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    walls = {}
    outputs = {}
    for mode in Mode:
        config = PipelineConfig(mode=mode, engine=EngineConfig(), seed=0)
        outs, metrics = run_pipeline(docs, config)
        walls[mode] = metrics.wall_ms
        outputs[mode] = [to_structured(p) for p in outs]
    assert walls[Mode.PIPELINE_PARALLEL] < walls[Mode.PARALLEL_GATHER] < walls[Mode.SEQUENTIAL]
    assert outputs[Mode.SEQUENTIAL] == outputs[Mode.PARALLEL_GATHER]
    assert outputs[Mode.SEQUENTIAL] == outputs[Mode.PIPELINE_PARALLEL]


def test_zero_cost_run_has_zero_idle_fractions():
    docs = [ocr_only_doc("a", 3)]
    engine = bare_engine(
        preprocess_ms_per_page=0.0, layout_ms_per_page=0.0, dispatch_ms_per_task=0.0,
        gather_ms_per_task=0.0, gather_ms_per_doc=0.0, consolidate_ms_per_doc=0.0,
        format_ms_per_doc=0.0, max_wait_ms=0.0,
    )
    experts = ocr_experts(base=0.0, per_item=0.0)
    walls = []
    for mode in Mode:
        _outs, metrics = run_pipeline(docs, PipelineConfig(mode=mode, engine=engine,
                                                           experts=experts))
        walls.append(metrics.wall_ms)
        assert all(s.bubble_fraction == 0.0 for s in metrics.per_stage)
    assert all(w == pytest.approx(0.0) for w in walls)


def test_accounting_identity_busy_plus_idle():
    docs = [ocr_only_doc("a", 8), ocr_only_doc("b", 6)]
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(),
                            experts=ocr_experts())
    _outs, metrics = run_pipeline(docs, config)
    for stage in metrics.per_stage:
        capacity = metrics.wall_ms * (metrics.workers if stage.stage == "experts" else 1)
        assert stage.busy_ms + stage.idle_ms == pytest.approx(capacity)


def test_queue_capacity_respected_with_backpressure():
    docs = [ocr_only_doc("a", 40)]
    engine = bare_engine(queue_capacity=3, max_batch=8)
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine, experts=ocr_experts())
    _outs, metrics = run_pipeline(docs, config)
    assert metrics.max_queue_depth.get("ocr", 0) <= 3
    assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed


def test_backpressure_stalls_producer_behind_slow_experts():
    # a tiny admission window forces the dispatcher to wait for the pool,
    # stretching the makespan well beyond the unconstrained run
    docs = [ocr_only_doc("a", 40)]
    slow = ocr_experts(base=50.0, per_item=5.0, replicas=1)
    tight = PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(queue_capacity=2, max_batch=8,
                                                        workers=1),
        experts=slow,
    )
    wide = PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(queue_capacity=64, max_batch=8,
                                                        workers=1),
        experts=slow,
    )
    outs_tight, m_tight = run_pipeline(docs, tight)
    outs_wide, m_wide = run_pipeline(docs, wide)
    # capacity 2 -> batches of at most 2: many more batches, much more base cost
    assert m_tight.wall_ms > m_wide.wall_ms
    assert m_tight.max_queue_depth.get("ocr", 0) <= 2
    assert [to_structured(p) for p in outs_tight] == [to_structured(p) for p in outs_wide]


def mixed_docs():
    # ocr-only documents long enough for full batches, plus a generated
    # document with several modalities
    generated, _ = gen_corpus(CorpusSpec(seed=12, n_docs=1, pages_min=2, pages_max=2))
    return [ocr_only_doc("a", 19), ocr_only_doc("b", 9), *generated]


@pytest.mark.parametrize("mode", list(Mode))
def test_engine_cap_above_expert_cap_in_every_mode(mode):
    # engine max_batch 8 over experts capped at 4: every mode must batch to
    # the expert's cap, as the synchronous path does
    docs = mixed_docs()
    engine = bare_engine(max_batch=8)
    experts = ocr_experts()
    outs, metrics = run_pipeline(docs, PipelineConfig(mode=mode, engine=engine, experts=experts))
    assert metrics.tasks_failed == 0
    assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed
    backend = MockBackend(DocumentStore(docs), experts)
    expected = [to_structured(process_document(d, engine, backend).parsed) for d in docs]
    assert [to_structured(p) for p in outs] == expected


def wrong_expert_table():
    # ocr tasks routed to a formula expert: MockBackend rejects them fatally
    table = ocr_experts()
    table["ocr"] = ExpertDescriptor("formula", max_batch=4)
    return table


@pytest.mark.parametrize("mode", list(Mode))
def test_fatal_expert_error_recorded_in_every_mode(mode):
    docs = [ocr_only_doc("a", 6), ocr_only_doc("b", 3)]
    config = PipelineConfig(mode=mode, engine=bare_engine(), experts=wrong_expert_table())
    outs, metrics = run_pipeline(docs, config)
    assert metrics.tasks_dispatched == 9
    assert metrics.tasks_failed == metrics.tasks_dispatched
    assert metrics.tasks_completed == 0 and metrics.retries == 0
    for doc, parsed in zip(docs, outs):
        assert parsed.failed_tasks == tuple(
            sorted(f"{doc.doc_id}/{d.id}" for d in doc.pages[0].detections)
        )
    with pytest.raises(StrictModeFailure):
        run_pipeline(docs, PipelineConfig(mode=mode, engine=bare_engine(),
                                          experts=wrong_expert_table(), strict=True))


def misbehaving_backend(fault: str) -> type[MockBackend]:
    """A mock backend whose every answer breaks the wire contract by `fault`."""

    class Misbehaving(MockBackend):
        def process(self, modality, batch, attempt=0):
            if fault == "protocol":
                raise ProtocolError(502, "bad gateway")
            responses = super().process(modality, batch, attempt)
            if fault == "missing":
                return responses[:-1]
            if fault == "extra":
                return [*responses, ExpertResponse("unknown/task", Text("stray"))]
            if fault == "duplicate":
                return [*responses, responses[0]]
            assert fault == "reordered"
            return responses[::-1]

    return Misbehaving


@pytest.mark.parametrize("fault", ["missing", "extra", "duplicate", "reordered", "protocol"])
@pytest.mark.parametrize("path", ["sync", *Mode])
def test_contract_breaking_response_fails_its_batch(monkeypatch, fault, path):
    # two batches of 4: each bad answer fails its whole batch, no retry, and
    # the run completes
    doc = ocr_only_doc("a", 8)
    engine = bare_engine()
    backend_cls = misbehaving_backend(fault)
    if path == "sync":
        backend = backend_cls(DocumentStore([doc]), ocr_experts())
        parsed = process_document(doc, engine, backend).parsed
    else:
        monkeypatch.setattr("uniparse.runtime.MockBackend", backend_cls)
        config = PipelineConfig(mode=path, engine=engine, experts=ocr_experts())
        (parsed,), metrics = run_pipeline([doc], config)
        assert metrics.tasks_dispatched == metrics.tasks_failed == 8
        assert metrics.tasks_completed == 0 and metrics.retries == 0
    assert parsed.failed_tasks == tuple(sorted(f"a/{d.id}" for d in doc.pages[0].detections))


def small_batch_table():
    table = ocr_experts(base=30.0, per_item=4.0)
    table["ocr"] = ExpertDescriptor("ocr", max_batch=2, latency=LatencyModel(30.0, 4.0))
    return table


def test_compare_modes_and_scaling_keep_descriptor_updates():
    # a swap at the first document is the same as starting with that table,
    # in every mode and at every worker count
    docs = [ocr_only_doc("a", 9), ocr_only_doc("b", 5)]
    swapped = PipelineConfig(engine=bare_engine(), experts=ocr_experts(),
                             descriptor_updates=((0, small_batch_table()),))
    direct = PipelineConfig(engine=bare_engine(), experts=small_batch_table())
    assert compare_modes(docs, swapped) == compare_modes(docs, direct)
    assert compare_modes(docs, swapped) != compare_modes(
        docs, PipelineConfig(engine=bare_engine(), experts=ocr_experts()))
    assert (simulate_scaling(docs, [1, 2], swapped).to_report()
            == simulate_scaling(docs, [1, 2], direct).to_report())


def test_swap_lowering_cap_resplits_formed_batches(monkeypatch):
    # doc "b"'s batches of 4 wait behind one slow worker; admitting doc "c"
    # swaps in a table with max_batch 2, so they are re-split, not failed
    docs = [ocr_only_doc("a", 4), ocr_only_doc("b", 16), ocr_only_doc("c", 2)]
    engine = bare_engine(workers=1, max_in_flight_docs=2, max_batch=8)
    sizes = []
    real_process = MockBackend.process

    def recording(self, modality, batch, attempt=0):
        sizes.append((len(batch), self.descriptors[modality].max_batch))
        return real_process(self, modality, batch, attempt)

    monkeypatch.setattr(MockBackend, "process", recording)
    swapped = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine,
                             experts=ocr_experts(replicas=1),
                             descriptor_updates=((2, small_batch_table()),))
    outs, metrics = run_pipeline(docs, swapped)
    assert metrics.tasks_failed == 0
    assert metrics.tasks_dispatched == metrics.tasks_completed == 22
    assert all(size <= cap for size, cap in sizes)
    # the swap found formed batches of 4 still waiting: some were split
    assert (4, 4) in sizes and (2, 2) in sizes
    assert len(sizes) > 22 // 4 + 1
    plain = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine, experts=ocr_experts())
    plain_outs, _m = run_pipeline(docs, plain)
    assert [to_structured(p) for p in outs] == [to_structured(p) for p in plain_outs]


def test_no_task_loss_with_failures_and_retries():
    spec = CorpusSpec(seed=4, n_docs=8, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    config = PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL, engine=EngineConfig(max_retries=2, backoff_ms=5.0),
        experts=default_descriptors(seed=9, failure_rate=0.5), seed=9,
    )
    _outs, metrics = run_pipeline(docs, config)
    assert metrics.retries > 0
    assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    failure_rate=st.floats(0.0, 1.0),
    max_retries=st.integers(0, 3),
    engine_cap=st.integers(1, 8),
    expert_cap=st.integers(1, 8),
)
def test_tasks_conserved_under_random_failures_in_every_mode(seed, failure_rate, max_retries,
                                                             engine_cap, expert_cap):
    docs, _ = gen_corpus(CorpusSpec(seed=seed, n_docs=3, pages_min=1, pages_max=2))
    engine = EngineConfig(max_batch=engine_cap, max_retries=max_retries, backoff_ms=5.0)
    planned = sum(len(analyze_and_plan(doc, engine)[1].tasks) for doc in docs)
    experts = default_descriptors(max_batch=expert_cap, seed=seed + 1, failure_rate=failure_rate)
    sizes = []
    real_process = MockBackend.process

    def recording(self, modality, batch, attempt=0):
        sizes.append((len(batch), self.descriptors[modality].max_batch))
        return real_process(self, modality, batch, attempt)

    with mock.patch.object(MockBackend, "process", recording):
        for mode in Mode:
            config = PipelineConfig(mode=mode, engine=engine, experts=experts, seed=seed + 1)
            outs, metrics = run_pipeline(docs, config)
            assert [p.doc_id for p in outs] == [d.doc_id for d in docs]
            assert metrics.tasks_dispatched == planned
            assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed
    assert all(size <= cap for size, cap in sizes)


def test_strict_mode_raises_on_fatal_tasks():
    docs = [ocr_only_doc("a", 4)]
    config = PipelineConfig(
        mode=Mode.SEQUENTIAL, engine=bare_engine(max_retries=1),
        experts=ocr_experts(failure_rate=1.0, seed=3), strict=True,
    )
    with pytest.raises(StrictModeFailure):
        run_pipeline(docs, config)


def test_metrics_deterministic_across_runs():
    spec = CorpusSpec(seed=6, n_docs=10, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=EngineConfig(), seed=5,
                            experts=default_descriptors(seed=5))
    _o1, m1 = run_pipeline(docs, config)
    _o2, m2 = run_pipeline(docs, config)
    assert m1 == m2


def test_outputs_invariant_across_worker_counts():
    spec = CorpusSpec(seed=8, n_docs=6, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    dumps = []
    for workers in (1, 3, 5):
        config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL,
                                engine=EngineConfig(workers=workers), seed=1)
        outs, _m = run_pipeline(docs, config)
        dumps.append([to_structured(p) for p in outs])
    assert dumps[0] == dumps[1] == dumps[2]


# --- scaling -----------------------------------------------------------------


def test_scaling_contention_free_near_linear():
    spec = CorpusSpec(seed=3, n_docs=24, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    report = simulate_scaling(docs, [1, 2, 4], contention_free_config(seed=3, max_workers=4))
    assert report.r_squared >= 0.98
    assert report.points[-1].throughput_pps > report.points[0].throughput_pps


def test_scaling_flat_when_one_stage_serializes():
    # one replica of one modality doing all the work: the Amdahl limit
    docs = [ocr_only_doc(f"d{i}", 8) for i in range(10)]
    engine = bare_engine(workers=1)
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine,
                            experts=ocr_experts(base=40.0, per_item=5.0, replicas=1))
    report = simulate_scaling(docs, [1, 2, 4, 8], config)
    base_pps = report.points[0].throughput_pps
    for point in report.points[1:]:
        assert point.throughput_pps <= base_pps * 1.15
    assert abs(report.slope) < 0.05 * base_pps


def test_scaling_consistent_with_single_run():
    docs = [ocr_only_doc(f"d{i}", 6) for i in range(5)]
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(workers=1),
                            experts=ocr_experts())
    report = simulate_scaling(docs, [1], config)
    _outs, metrics = run_pipeline(docs, config)
    assert report.points[0].throughput_pps == pytest.approx(metrics.throughput_pps)


@pytest.mark.parametrize("sweep", [
    lambda docs, config: compare_modes(docs, config),
    lambda docs, config: simulate_scaling(docs, [1, 2, 4], config),
], ids=["compare_modes", "simulate_scaling"])
def test_sweeps_lay_out_each_document_once(monkeypatch, sweep):
    docs, _ = gen_corpus(CorpusSpec(seed=5, n_docs=6, pages_min=1, pages_max=2))
    calls = Counter()
    real_analyze_pages = uniparse.engine.analyze_pages

    def counting(doc, cfg=None):
        calls[doc.doc_id] += 1
        return real_analyze_pages(doc, cfg)

    # analyze_and_plan looks analyze_pages up in uniparse.engine
    monkeypatch.setattr(uniparse.engine, "analyze_pages", counting)
    sweep(docs, PipelineConfig(engine=EngineConfig(), seed=0))
    assert calls == Counter(d.doc_id for d in docs)


@pytest.mark.parametrize("swap", [False, True])
def test_sweeps_match_separate_runs(swap):
    docs, _ = gen_corpus(CorpusSpec(seed=7, n_docs=8, pages_min=1, pages_max=3))
    updates = ((3, default_descriptors(max_batch=3, replicas=1, seed=2)),) if swap else ()
    config = PipelineConfig(engine=EngineConfig(), experts=default_descriptors(seed=2), seed=2,
                            descriptor_updates=updates)
    rows = [bubble_report(run_pipeline(docs, dataclasses.replace(config, mode=mode))[1])
            for mode in (Mode.SEQUENTIAL, Mode.PARALLEL_GATHER, Mode.PIPELINE_PARALLEL)]
    assert compare_modes(docs, config) == {"workload_docs": len(docs), "modes": rows}
    counts = [1, 2, 4]
    separate = [run_pipeline(docs, dataclasses.replace(config, engine=config.engine.copy(
        workers=n)))[1].throughput_pps for n in counts]
    report = simulate_scaling(docs, counts, config)
    assert [p.throughput_pps for p in report.points] == separate


def test_scaling_rejects_bad_counts():
    docs = [ocr_only_doc("a", 2)]
    config = PipelineConfig(engine=bare_engine())
    with pytest.raises(ValueError):
        simulate_scaling(docs, [4, 2, 1], config)
    with pytest.raises(ValueError):
        simulate_scaling(docs, [], config)


# --- reports -----------------------------------------------------------------


def test_bubble_report_fields():
    docs = [ocr_only_doc("a", 6)]
    config = PipelineConfig(mode=Mode.SEQUENTIAL, engine=bare_engine(), experts=ocr_experts())
    _outs, metrics = run_pipeline(docs, config)
    report = bubble_report(metrics)
    assert set(report) == {"mode", "wall_ms", "throughput_pps",
                           "expert_bubble_fraction", "per_stage"}
    stages = {row["stage"] for row in report["per_stage"]}
    assert "experts" in stages and "layout" in stages


def test_compare_modes_three_rows():
    spec = CorpusSpec(seed=5, n_docs=6, pages_min=1, pages_max=2)
    docs, _ = gen_corpus(spec)
    comparison = compare_modes(docs, PipelineConfig(engine=EngineConfig(), seed=0))
    assert [row["mode"] for row in comparison["modes"]] == ["seq", "par", "pipe"]


def test_metrics_report_schema():
    docs = [ocr_only_doc("a", 6)]
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(),
                            experts=ocr_experts())
    _outs, metrics = run_pipeline(docs, config)
    report = metrics.to_report()
    assert "throughput_pps" in report and "bubble_fraction" in report
    assert isinstance(report["per_stage"], list)
    assert {"stage", "busy_ms", "idle_ms", "bubble_fraction"} <= set(report["per_stage"][0])


def test_descriptor_hot_swap_between_documents():
    docs = [ocr_only_doc(f"d{i}", 4) for i in range(4)]
    slow = ocr_experts(base=100.0, per_item=10.0)
    fast = ocr_experts(base=1.0, per_item=0.5)
    swapped = PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL, engine=bare_engine(max_in_flight_docs=1),
        experts=slow, descriptor_updates=((2, fast),),
    )
    _outs, m_swapped = run_pipeline(docs, swapped)
    _outs2, m_slow = run_pipeline(
        docs, PipelineConfig(mode=Mode.PIPELINE_PARALLEL,
                             engine=bare_engine(max_in_flight_docs=1), experts=slow)
    )
    assert m_swapped.wall_ms < m_slow.wall_ms


@pytest.mark.parametrize("mode", [Mode.SEQUENTIAL, Mode.PARALLEL_GATHER])
def test_descriptor_updates_sharing_an_index_apply_in_order(mode):
    # both updates are due at doc "b"; the later one, which misroutes ocr,
    # is the one in force
    docs = [ocr_only_doc("a", 4), ocr_only_doc("b", 4)]
    config = PipelineConfig(mode=mode, engine=bare_engine(), experts=ocr_experts(),
                            descriptor_updates=((1, ocr_experts(base=5.0)),
                                                (1, wrong_expert_table())))
    outs, metrics = run_pipeline(docs, config)
    assert outs[0].failed_tasks == ()
    assert len(outs[1].failed_tasks) == 4
    assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed == 8
