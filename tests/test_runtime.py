from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import pytest
import workloads
from hypothesis import given, settings, strategies as st

import uniparse.engine
import uniparse.runtime as runtime
from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import BoundingBox, Detection, DocumentIR, PageIR, SemanticCategory as C
from uniparse.engine import (
    MockBackend,
    StrictModeFailure,
    analyze_and_plan,
    form_batches,
    process_document,
)
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
    ExpertStageMetrics,
    Mode,
    PipelineConfig,
    PipelineMetrics,
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


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("mode", list(Mode))
def test_a_run_serves_no_more_batches_at_once_than_the_replica_cap(mode, replicas):
    docs = [ocr_only_doc(f"d{i}", 12) for i in range(6)]
    config = PipelineConfig(mode=mode, engine=bare_engine(workers=4),
                            experts=ocr_experts(replicas=replicas))
    _parsed, metrics = run_pipeline(docs, config)
    assert [record.modality for record in metrics.per_expert] == ["ocr"]
    for record in metrics.per_expert:
        assert record.busy_ms <= metrics.wall_ms * replicas
    (experts,) = (s for s in metrics.per_stage if s.stage == runtime.EXPERT_STAGE)
    assert experts.busy_ms <= metrics.wall_ms * metrics.workers


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
    else:
        # a task-less document overtakes the OCR one ahead of it: "z" leaves
        # layout at 24 and pays gather 2 + consolidate 3 + format 3
        assert metrics.doc_latency_ms == pytest.approx(
            {"z": 32.0, "z2": 52.0, "a": 60.7, "b": 83.85})


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


@pytest.mark.parametrize("mode", [Mode.SEQUENTIAL, Mode.PARALLEL_GATHER],
                         ids=lambda mode: mode.value)
def test_held_modes_bypass_the_queue_bound(mode):
    # a held step puts all 40 tasks in the queues before anything drains
    # them: a bound of 3 must not apply, or the document waits on itself
    docs = [ocr_only_doc("a", 40)]
    engine = bare_engine(queue_capacity=3, max_batch=8)
    outs, metrics = run_pipeline(docs, PipelineConfig(mode=mode, engine=engine,
                                                      experts=ocr_experts()))
    assert [p.doc_id for p in outs] == ["a"]
    assert metrics.tasks_dispatched == metrics.tasks_completed == 40
    assert metrics.max_queue_depth == {}


def test_parallel_gather_offers_form_batches_of_each_document():
    # neither the queue bound nor the pipeline's timers shape held batches
    docs = mixed_docs()
    engine = bare_engine(max_batch=8, queue_capacity=3)
    experts = ocr_experts()
    caps = {m: d.max_batch for m, d in experts.items()}
    sent = []
    real_process = MockBackend.process

    def recording(self, modality, batch, attempt=0):
        sent.append((modality, [t.task_id for t in batch]))
        return real_process(self, modality, batch, attempt)

    with mock.patch.object(MockBackend, "process", recording):
        run_pipeline(docs, PipelineConfig(mode=Mode.PARALLEL_GATHER, engine=engine,
                                          experts=experts))
    for doc in docs:
        plan = analyze_and_plan(doc, engine)[1]
        expected = [(b.modality, [t.task_id for t in b.tasks])
                    for b in form_batches(plan.tasks, engine.max_batch, caps)]
        got = [(m, ids) for m, ids in sent if ids[0].startswith(f"{doc.doc_id}/")]
        assert sorted(got) == sorted(expected)


def test_backpressure_stalls_producer_behind_slow_experts():
    # a tiny admission window forces the dispatch stage to wait for the pool,
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


def recorded_calls(docs, config):
    """Runs the documents; the task ids of each expert call, in call order."""
    calls = []
    real_process = MockBackend.process

    def recording(self, modality, batch, attempt=0):
        calls.append([t.task_id for t in batch])
        return real_process(self, modality, batch, attempt)

    with mock.patch.object(MockBackend, "process", recording):
        outs, metrics = run_pipeline(docs, config)
    return calls, outs, metrics


def test_a_waiting_batch_takes_the_queued_tasks_when_the_worker_starts_it():
    # One worker, batches of 4, a 5 ms wait, 0.2 ms dispatch steps, and a
    # batch of n ocr tasks costs 6 + n ms. Document a's steps (a1-a5, ids
    # ab0-ab4) end at 14.2 to 15.0: a1-a4 go as a full batch at 14.8 and run
    # until 24.8, and a5's timer cuts [a5] at 20.0, which waits. Document b
    # is laid out after a, so its steps end at 24.2, 24.4 and 24.6, and its
    # timer would fire at 29.2. At 24.8 the worker starts [a5] with b1-b3
    # added, until 34.8.
    docs = [ocr_only_doc("a", 5), ocr_only_doc("b", 3)]
    engine = bare_engine(workers=1, max_wait_ms=5.0)
    experts = ocr_experts(base=6.0, per_item=1.0, replicas=1)
    calls, _outs, metrics = recorded_calls(
        docs, PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine, experts=experts))
    assert calls == [["a/ab0", "a/ab1", "a/ab2", "a/ab3"],
                     ["a/ab4", "b/bb0", "b/bb1", "b/bb2"]]
    # both documents reach gather at 34.8: a gathers until 37.05, b until
    # 39.2, and each then takes 3 ms to consolidate and 3 ms to format
    assert metrics.wall_ms == pytest.approx(46.05)
    assert metrics.doc_latency_ms == pytest.approx({"a": 43.05, "b": 46.05})
    assert metrics.tasks_dispatched == metrics.tasks_completed == 8


def test_a_batch_takes_queued_tasks_only_up_to_the_queue_bound():
    # As above, with a queue bound of 3 below both caps (4), so batches hold
    # at most 3, and a batch of n costs 7.1 + n ms. a1-a3 run from 14.6 to
    # 24.7, and [a4] is cut at 19.8. b1 and b2 queue at 24.2 and 24.4; b3's
    # step is refused at 24.6, as [a4], b1 and b2 fill the bound. At 24.7
    # the worker starts [a4] with b1 and b2 added, and b3 queues behind it.
    docs = [ocr_only_doc("a", 4), ocr_only_doc("b", 3)]
    engine = bare_engine(workers=1, max_wait_ms=5.0, queue_capacity=3)
    experts = ocr_experts(base=7.1, per_item=1.0, replicas=1)
    calls, _outs, metrics = recorded_calls(
        docs, PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=engine, experts=experts))
    assert calls == [["a/ab0", "a/ab1", "a/ab2"], ["a/ab3", "b/bb0", "b/bb1"], ["b/bb2"]]
    assert metrics.max_queue_depth == {"ocr": 3}  # a1-a3, before they are cut
    assert metrics.tasks_dispatched == metrics.tasks_completed == 7


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
        sizes.append((len(batch), min(engine_cap, self.descriptors[modality].max_batch)))
        return real_process(self, modality, batch, attempt)

    with mock.patch.object(MockBackend, "process", recording):
        for mode in Mode:
            config = PipelineConfig(mode=mode, engine=engine, experts=experts, seed=seed + 1)
            outs, metrics = run_pipeline(docs, config)
            assert [p.doc_id for p in outs] == [d.doc_id for d in docs]
            assert metrics.tasks_dispatched == planned
            assert metrics.tasks_dispatched == metrics.tasks_completed + metrics.tasks_failed
    # the queue bound (64) is above both caps here; see the bounded pipe test
    assert engine.queue_capacity > max(engine_cap, expert_cap)
    assert all(size <= cap for size, cap in sizes)


def test_strict_mode_raises_on_fatal_tasks():
    docs = [ocr_only_doc("a", 4)]
    config = PipelineConfig(
        mode=Mode.SEQUENTIAL, engine=bare_engine(max_retries=1),
        experts=ocr_experts(failure_rate=1.0, seed=3), strict=True,
    )
    with pytest.raises(StrictModeFailure):
        run_pipeline(docs, config)


def test_sweeps_raise_the_strict_failure_of_run_pipeline():
    # the formula document passes; the two ocr documents fail fatally
    formula = one_page_doc([det("f1", (0.1, 0.1, 0.5, 0.2), C.FORMULA, truth_text="x")],
                           doc_id="f")
    docs = [formula, ocr_only_doc("b", 5), ocr_only_doc("c", 2)]
    config = PipelineConfig(engine=bare_engine(), experts=wrong_expert_table(), strict=True)
    with pytest.raises(StrictModeFailure) as direct:
        run_pipeline(docs, config)
    assert direct.value.doc_id == "b"
    assert direct.value.failed == sorted(f"b/{d.id}" for d in docs[1].pages[0].detections)
    for sweep in (lambda: compare_modes(docs, config),
                  lambda: simulate_scaling(docs, [1, 2], config)):
        with pytest.raises(StrictModeFailure) as swept:
            sweep()
        assert (swept.value.doc_id, swept.value.failed) == (direct.value.doc_id,
                                                            direct.value.failed)


@pytest.mark.parametrize("sweep", [
    lambda docs, config: run_pipeline(docs, config),
    lambda docs, config: compare_modes(docs, config),
    lambda docs, config: simulate_scaling(docs, [1, 2], config),
], ids=["run_pipeline", "compare_modes", "simulate_scaling"])
def test_a_run_rejects_two_documents_with_one_id(sweep):
    a = ocr_only_doc("a", 3)
    with pytest.raises(ValueError, match="unique"):
        sweep([a, ocr_only_doc("b", 2), a], PipelineConfig(engine=bare_engine(),
                                                           experts=ocr_experts()))


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


def test_sequential_report_counts_its_one_worker():
    docs, _ = gen_corpus(CorpusSpec(seed=1, n_docs=4, pages_min=1, pages_max=2))
    config = PipelineConfig(mode=Mode.SEQUENTIAL, engine=EngineConfig(workers=4), seed=1)
    _outs, metrics = run_pipeline(docs, config)
    one = dataclasses.replace(config, engine=config.engine.copy(workers=1))
    _outs, single = run_pipeline(docs, one)
    assert metrics.workers == 1
    assert [metrics.to_report(), metrics.doc_latency_ms] == [single.to_report(),
                                                             single.doc_latency_ms]


def test_workers_are_allocated_only_when_used():
    docs, _ = gen_corpus(CorpusSpec(seed=1, n_docs=1, pages_min=1, pages_max=2))
    config = PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=EngineConfig(workers=4), seed=1)
    huge = dataclasses.replace(config, engine=config.engine.copy(workers=2_000_000))
    tracemalloc.start()
    try:
        outs, _metrics = run_pipeline(docs, huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of every worker id alone would take about 70 MB
    assert peak < 4 * 2**20
    few, _metrics = run_pipeline(docs, config)
    assert [to_structured(p) for p in outs] == [to_structured(p) for p in few]


# --- memory ------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(Mode))
def test_a_run_holds_only_the_plans_of_the_documents_in_flight(monkeypatch, mode):
    docs, _ = gen_corpus(CorpusSpec(seed=2, n_docs=12, pages_min=1, pages_max=3))
    engine = EngineConfig(max_in_flight_docs=3)
    in_flight = 1 if mode is not Mode.PIPELINE_PARALLEL else engine.max_in_flight_docs
    alive = weakref.WeakValueDictionary()  # a plan is an eq dataclass, so unhashable
    alive_at_admission = []
    real_analyze_and_plan = runtime.analyze_and_plan

    def keeping(doc, cfg=None):
        analyses, plan = real_analyze_and_plan(doc, cfg)
        alive[doc.doc_id] = plan
        alive_at_admission.append(len(alive))
        return analyses, plan

    monkeypatch.setattr(runtime, "analyze_and_plan", keeping)
    outs, _metrics = run_pipeline(docs, PipelineConfig(mode=mode, engine=engine, seed=2))
    assert len(alive_at_admission) == len(docs) == len(outs)
    assert max(alive_at_admission) <= in_flight
    assert len(alive) == 0


@pytest.mark.parametrize("mode", list(Mode))
def test_a_runs_cyclic_garbage_does_not_grow_with_the_documents(mode):
    def garbage_after_a_run(n_docs):
        docs, _ = gen_corpus(CorpusSpec(seed=1, n_docs=n_docs))
        config = PipelineConfig(mode=mode, engine=EngineConfig(), seed=1)
        gc.collect()
        gc.disable()
        try:
            run_pipeline(docs, config)
            return gc.collect()
        finally:
            gc.enable()

    assert garbage_after_a_run(40) == garbage_after_a_run(10)


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


SWEEPS = pytest.mark.parametrize("sweep", [
    lambda docs, config: compare_modes(docs, config),
    lambda docs, config: simulate_scaling(docs, [1, 2, 4], config),
], ids=["compare_modes", "simulate_scaling"])


@SWEEPS
def test_sweeps_lay_out_each_document_once(monkeypatch, sweep):
    docs, _ = gen_corpus(CorpusSpec(seed=5, n_docs=6, pages_min=1, pages_max=2))
    calls = Counter()
    real_page_trees = uniparse.engine.page_trees

    def counting(doc, cfg=None):
        calls[doc.doc_id] += 1
        return real_page_trees(doc, cfg)

    # a sweep plans through runtime's page_trees; analyze_pages looks it up
    # in uniparse.engine
    monkeypatch.setattr(runtime, "page_trees", counting)
    monkeypatch.setattr(uniparse.engine, "page_trees", counting)
    sweep(docs, PipelineConfig(engine=EngineConfig(), seed=0))
    assert calls == Counter(d.doc_id for d in docs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_sweep_plans_are_the_plans_of_a_parse(monkeypatch, name):
    wl = workloads.build(name, 1)
    ordered = []
    monkeypatch.setattr(uniparse.engine, "order_units",
                        lambda tree, cfg=None: ordered.append(tree) or [])
    plans = runtime._plan_docs(wl.docs, wl.engine)
    assert ordered == []  # a sweep orders no page
    monkeypatch.undo()
    assert plans == [analyze_and_plan(doc, wl.engine)[1] for doc in wl.docs]
    assert sum(len(plan.tasks) for plan in plans) > 0


@SWEEPS
def test_a_sweep_builds_one_document_store(monkeypatch, sweep):
    # every run of a sweep is served by one MockBackend over one store
    docs, _ = gen_corpus(CorpusSpec(seed=5, n_docs=6, pages_min=1, pages_max=2))
    built = []

    class CountingStore(DocumentStore):
        def __init__(self, docs=None):
            built.append(docs)
            super().__init__(docs)

    monkeypatch.setattr(runtime, "DocumentStore", CountingStore)
    sweep(docs, PipelineConfig(engine=EngineConfig(), seed=0))
    assert built == [docs]


@pytest.mark.parametrize("capped", [False, True])
def test_sweeps_match_separate_runs(capped):
    # a sweep's runs share one backend, under the config's own table
    docs, _ = gen_corpus(CorpusSpec(seed=7, n_docs=8, pages_min=1, pages_max=3))
    table = {"max_batch": 3, "replicas": 1} if capped else {}
    config = PipelineConfig(engine=EngineConfig(), experts=default_descriptors(seed=2, **table),
                            seed=2)
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
    with pytest.raises(ValueError, match="workers"):
        simulate_scaling(docs, [0, 2], config)


# --- reports -----------------------------------------------------------------


def test_bubble_report_fields():
    docs = [ocr_only_doc("a", 6)]
    config = PipelineConfig(mode=Mode.SEQUENTIAL, engine=bare_engine(), experts=ocr_experts())
    _outs, metrics = run_pipeline(docs, config)
    report = bubble_report(metrics)
    assert set(report) == {"mode", "workers", "wall_ms", "throughput_pps",
                           "expert_bubble_fraction", "per_stage"}
    assert report["workers"] == 1
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
    # every field but doc_latency_ms, the task counters nested under "tasks"
    counters = {"tasks_dispatched": "dispatched", "tasks_completed": "completed",
                "tasks_failed": "failed", "retries": "retries"}
    fields = {f.name for f in dataclasses.fields(PipelineMetrics)}
    assert set(report) == fields - {"doc_latency_ms", *counters} | {"tasks"}
    assert report["tasks"] == {key: getattr(metrics, name) for name, key in counters.items()}
    assert set(report["per_expert"][0]) == {f.name for f in dataclasses.fields(ExpertStageMetrics)}
    # every float rounded to 6 places, on a run whose raw floats are not
    docs = gen_corpus(CorpusSpec(seed=3, n_docs=4, pages_min=1, pages_max=2))[0]
    _outs, metrics = run_pipeline(docs, PipelineConfig(seed=3))
    assert metrics.wall_ms != round(metrics.wall_ms, 6)
    report = metrics.to_report()
    floats = list(_floats(report))
    assert len(floats) > 20 and all(x == round(x, 6) for x in floats)
    assert report["wall_ms"] == round(metrics.wall_ms, 6)


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _floats(item)
