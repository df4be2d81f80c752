"""Pipeline execution engine and simulator.

Each document is laid out and planned once, before the event loop, so the
simulator only schedules: its layout stage charges layout_ms_per_page and
computes nothing. Layout and planning read neither the mode, the worker count
nor the descriptor table, so compare_modes and simulate_scaling share one set
of plans across their runs.

A virtual (discrete-event) clock drives one driver over the document stream.
Every mode runs the same stage workers (preprocess, layout, dispatch, gather,
consolidate, format) and the same expert pool, and finishes documents with
engine.assemble_document; the mode sets three things:

- pipeline parallel: max_in_flight_docs documents in flight, `workers`
  expert workers; tasks stream through bounded per-modality queues into
  greedy batch stacking (max_wait_ms timers, backpressure) and dynamic
  balancing;
- parallel gather: one document in flight, `workers` expert workers; the
  dispatch stage takes a document in one step (dispatch_ms_per_task times its
  tasks), then form_batches offers all of its tasks to the pool at once;
- sequential: as parallel gather, with one expert worker.

queue_capacity, max_wait_ms and max_in_flight_docs act only in pipeline
parallel. In sequential, a batch that failed retryably is re-offered after
its backoff and the single worker serves other ready batches meanwhile; it
idles only when nothing else is ready.

Document outputs are byte-identical across modes and worker counts (content
is pure); only the schedule, and therefore the metrics, differ. With failure
injection enabled, batching composition differs between modes, so tasks that
exhaust retries can diverge; keep failure_rate at 0 when comparing outputs.

Batch size, in every mode, is at most min(engine max_batch, the serving
expert's descriptor max_batch), read from the descriptor table in force;
pipeline parallel also caps it at queue_capacity. No expert error aborts a
run: a fatal or protocol error, a response that does not answer the batch's
tasks in request order, or a retryable error that exhausts max_retries,
becomes one TaskFailure per task of the batch in every mode. It counts in
tasks_failed, and with strict=True the run raises StrictModeFailure once it
has finished.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .config import EngineConfig
from .dispatch import Batch, DispatchPlan, QueueState, TaskFailure, batch_stack
from .docmodel import DocumentIR
from .engine import (
    PageAnalysis,
    StrictModeFailure,
    analyze_and_plan,
    assemble_document,
    backend_batch_caps,
    call_batch,
    form_batches,
)
from .experts import DocumentStore, ExpertDescriptor, MockBackend, default_descriptors
from .formats import ParsedDocument

EXPERT_STAGE = "experts"
CPU_STAGES = ("preprocess", "layout", "dispatch", "gather", "consolidate", "format")


class Mode(Enum):
    SEQUENTIAL = "seq"
    PARALLEL_GATHER = "par"
    PIPELINE_PARALLEL = "pipe"


@dataclass
class PipelineConfig:
    mode: Mode = Mode.PIPELINE_PARALLEL
    engine: EngineConfig = field(default_factory=EngineConfig)
    experts: dict[str, ExpertDescriptor] | None = None
    seed: int = 0
    strict: bool = False
    # (admitted-doc index, descriptor table): in every mode the table swaps in
    # when the document with that index is admitted, before any of its work
    # starts; it must keep the same modality set. In pipeline parallel, work of
    # earlier documents may still be in flight: a batch already dispatched is
    # served under the table it was dispatched with, and a batch formed but not
    # yet dispatched is re-split to the new table's max_batch when dispatched,
    # never recorded as failed.
    descriptor_updates: tuple[tuple[int, dict[str, ExpertDescriptor]], ...] = ()

    def resolved_experts(self) -> dict[str, ExpertDescriptor]:
        if self.experts is not None:
            return self.experts
        return default_descriptors(max_batch=self.engine.max_batch, seed=self.seed)


@dataclass
class StageMetrics:
    stage: str
    busy_ms: float
    idle_ms: float
    bubble_fraction: float


@dataclass
class ExpertStageMetrics:
    modality: str
    busy_ms: float
    batches: int
    tasks: int
    retries: int
    utilization: float  # busy_ms / wall_ms summed over replicas, so it can exceed 1


@dataclass
class PipelineMetrics:
    mode: str
    workers: int
    wall_ms: float
    docs: int
    pages: int
    throughput_pps: float
    bubble_fraction: float  # expert-stage idle fraction
    per_stage: list[StageMetrics]
    per_expert: list[ExpertStageMetrics]
    queue_depth_hist: dict[str, dict[int, int]]
    max_queue_depth: dict[str, int]
    doc_latency_ms: dict[str, float]  # completion time since t=0, not admission to done
    tasks_dispatched: int
    tasks_completed: int
    tasks_failed: int
    retries: int

    def to_report(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "wall_ms": round(self.wall_ms, 6),
            "docs": self.docs,
            "pages": self.pages,
            "throughput_pps": round(self.throughput_pps, 6),
            "bubble_fraction": round(self.bubble_fraction, 6),
            "per_stage": [
                {
                    "stage": s.stage,
                    "busy_ms": round(s.busy_ms, 6),
                    "idle_ms": round(s.idle_ms, 6),
                    "bubble_fraction": round(s.bubble_fraction, 6),
                }
                for s in self.per_stage
            ],
            "per_expert": [
                {
                    "modality": e.modality,
                    "busy_ms": round(e.busy_ms, 6),
                    "batches": e.batches,
                    "tasks": e.tasks,
                    "retries": e.retries,
                    "utilization": round(e.utilization, 6),
                }
                for e in self.per_expert
            ],
            "max_queue_depth": dict(sorted(self.max_queue_depth.items())),
            "tasks": {
                "dispatched": self.tasks_dispatched,
                "completed": self.tasks_completed,
                "failed": self.tasks_failed,
                "retries": self.retries,
            },
        }


def balance(
    queue_depths: Mapping[str, int],
    replicas: Mapping[str, int],
    in_flight: Mapping[str, int] | None = None,
) -> str | None:
    """Pick the modality with the greatest depth/replicas ratio.

    Ties go to the lexicographically first modality; queues whose replica cap
    is exhausted are skipped.
    """
    best_ratio = -1.0
    best = None
    for modality in sorted(queue_depths):
        depth = queue_depths[modality]
        if depth <= 0:
            continue
        cap = replicas.get(modality, 1)
        if in_flight is not None and in_flight.get(modality, 0) >= cap:
            continue
        ratio = depth / cap
        if ratio > best_ratio:
            best_ratio = ratio
            best = modality
    return best


# ---------------------------------------------------------------------------
# Discrete-event core
# ---------------------------------------------------------------------------


class _Sim:
    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def at(self, t: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (max(t, self.now), self._seq, fn))
        self._seq += 1

    def after(self, dt: float, fn: Callable[[], None]) -> None:
        self.at(self.now + dt, fn)

    def run(self) -> None:
        while self._heap:
            t, _seq, fn = heapq.heappop(self._heap)
            self.now = t
            fn()


class _DocJob:
    def __init__(self, index: int, doc: DocumentIR, analyses: list[PageAnalysis],
                 plan: DispatchPlan):
        self.index = index
        self.doc = doc
        self.analyses = analyses
        self.plan = plan
        self.outcomes: dict = {}
        self.dispatch_done = False
        self.gathering = False
        self.parsed: ParsedDocument | None = None


class _Collector:
    def __init__(self, workers: int):
        self.workers = workers
        self.stage_busy: dict[str, float] = {s: 0.0 for s in CPU_STAGES}
        self.worker_busy: list[float] = [0.0] * workers
        self.expert_busy: dict[str, float] = {}
        self.expert_batches: dict[str, int] = {}
        self.expert_tasks: dict[str, int] = {}
        self.expert_retries: dict[str, int] = {}
        self.queue_hist: dict[str, dict[int, int]] = {}
        self.max_depth: dict[str, int] = {}
        self.doc_latency: dict[str, float] = {}
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.retries = 0

    def charge_stage(self, stage: str, ms: float) -> None:
        self.stage_busy[stage] = self.stage_busy.get(stage, 0.0) + ms

    def charge_expert(self, worker: int, modality: str, ms: float, tasks: int) -> None:
        self.worker_busy[worker] += ms
        self.expert_busy[modality] = self.expert_busy.get(modality, 0.0) + ms
        self.expert_batches[modality] = self.expert_batches.get(modality, 0) + 1
        self.expert_tasks[modality] = self.expert_tasks.get(modality, 0) + tasks

    def record_retry(self, modality: str) -> None:
        self.retries += 1
        self.expert_retries[modality] = self.expert_retries.get(modality, 0) + 1

    def record_outcome(self, outcome) -> None:
        if isinstance(outcome, TaskFailure):
            self.tasks_failed += 1
        else:
            self.tasks_completed += 1

    def record_depth(self, modality: str, depth: int) -> None:
        hist = self.queue_hist.setdefault(modality, {})
        hist[depth] = hist.get(depth, 0) + 1
        if depth > self.max_depth.get(modality, 0):
            self.max_depth[modality] = depth

    def finish(self, mode: Mode, wall_ms: float, docs: int, pages: int) -> PipelineMetrics:
        # A zero-cost run has no wall time and, by definition, no idle time.
        degenerate = wall_ms <= 0.0
        wall = max(wall_ms, 1e-9)
        per_stage = []
        for stage in CPU_STAGES:
            busy = self.stage_busy.get(stage, 0.0)
            idle = 0.0 if degenerate else max(wall - busy, 0.0)
            per_stage.append(StageMetrics(stage, busy, idle, idle / wall if not degenerate else 0.0))
        expert_capacity = wall * self.workers
        expert_total = sum(self.worker_busy)
        expert_idle = 0.0 if degenerate else max(expert_capacity - expert_total, 0.0)
        bubble = 0.0 if degenerate else expert_idle / expert_capacity
        per_stage.append(StageMetrics(EXPERT_STAGE, expert_total, expert_idle, bubble))
        per_expert = [
            ExpertStageMetrics(
                modality=m,
                busy_ms=self.expert_busy[m],
                batches=self.expert_batches.get(m, 0),
                tasks=self.expert_tasks.get(m, 0),
                retries=self.expert_retries.get(m, 0),
                utilization=self.expert_busy[m] / wall,
            )
            for m in sorted(self.expert_busy)
        ]
        return PipelineMetrics(
            mode=mode.value,
            workers=self.workers,
            wall_ms=wall_ms,
            docs=docs,
            pages=pages,
            throughput_pps=0.0 if degenerate else pages / (wall / 1000.0),
            bubble_fraction=bubble,
            per_stage=per_stage,
            per_expert=per_expert,
            queue_depth_hist=self.queue_hist,
            max_queue_depth=self.max_depth,
            doc_latency_ms=self.doc_latency,
            tasks_dispatched=self.tasks_dispatched,
            tasks_completed=self.tasks_completed,
            tasks_failed=self.tasks_failed,
            retries=self.retries,
        )


class _ExpertPool:
    """Shared worker pool with per-modality replica caps and retry logic.

    Descriptors (replicas, latency, max_batch) are read from the backend's
    table, which is the one in force after a hot swap.
    """

    def __init__(self, sim, config: PipelineConfig, backend: MockBackend, collector: _Collector,
                 on_task_done: Callable, on_drain: Callable[[], None], workers: int):
        self.sim = sim
        self.config = config
        self.backend = backend
        self.collector = collector
        self.on_task_done = on_task_done
        # invoked whenever a batch leaves the ready queue (backpressure relief)
        self.on_drain = on_drain
        self.free: list[int] = list(range(workers))
        self.in_flight: dict[str, int] = {m: 0 for m in backend.descriptors}
        self.ready: dict[str, deque] = {m: deque() for m in backend.descriptors}

    @property
    def descriptors(self) -> dict[str, ExpertDescriptor]:
        return self.backend.descriptors

    def ready_tasks(self, modality: str) -> int:
        return sum(len(b.tasks) for b in self.ready.get(modality, ()))

    def offer(self, batch: Batch) -> None:
        self.ready[batch.modality].append(batch)
        self.kick()

    def kick(self) -> None:
        while self.free:
            depths = {m: len(q) for m, q in self.ready.items()}
            modality = balance(depths, {m: d.replicas for m, d in self.descriptors.items()},
                               self.in_flight)
            if modality is None:
                return
            worker = heapq.heappop(self.free)
            batch = self._take(modality)
            self.in_flight[modality] += 1
            descriptor = self.descriptors[modality]
            task_ids = tuple(t.task_id for t in batch.tasks)
            latency = descriptor.latency.latency_ms(task_ids, batch.attempt)
            self.collector.charge_expert(worker, modality, latency, len(batch.tasks))
            # The expert in force at dispatch serves the batch, even if a
            # descriptor swap lands before the batch completes.
            outcomes = call_batch(self.backend, batch, batch.attempt,
                                  self.config.engine.max_retries)
            self.sim.after(latency, lambda w=worker, b=batch, o=outcomes: self._complete(w, b, o))
            self.on_drain()

    def _take(self, modality: str) -> Batch:
        """Pop the head batch, re-split to the expert's current max_batch: a
        swap may have lowered the cap after the batch was formed."""
        queue = self.ready[modality]
        batch = queue.popleft()
        cap = max(self.descriptors[modality].max_batch, 1)
        if len(batch.tasks) <= cap:
            return batch
        queue.appendleft(Batch(modality, batch.tasks[cap:], batch.formed_at, batch.reason,
                               attempt=batch.attempt))
        return Batch(modality, batch.tasks[:cap], batch.formed_at, batch.reason,
                     attempt=batch.attempt)

    def _complete(self, worker: int, batch: Batch, outcomes) -> None:
        heapq.heappush(self.free, worker)
        self.in_flight[batch.modality] -= 1
        if outcomes is None:
            self.collector.record_retry(batch.modality)
            retry = Batch(batch.modality, batch.tasks, self.sim.now, batch.reason,
                          attempt=batch.attempt + 1)
            backoff = self.config.engine.backoff_ms * (2 ** batch.attempt)
            self.sim.after(backoff, lambda b=retry: self.offer(b))
        else:
            for task in batch.tasks:
                outcome = outcomes[task.task_id]
                self.collector.record_outcome(outcome)
                self.on_task_done(task, outcome)
        self.kick()


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------


_Planned = tuple[DocumentIR, list[PageAnalysis], DispatchPlan]


def run_pipeline(
    docs: list[DocumentIR], config: PipelineConfig
) -> tuple[list[ParsedDocument], PipelineMetrics]:
    """Run the document stream under the configured mode and virtual clock."""
    return _simulate(_plan_docs(docs, config.engine), config)


def _plan_docs(docs: list[DocumentIR], engine: EngineConfig) -> list[_Planned]:
    """Every document's page analyses and dispatch plan, as _simulate takes them."""
    return [(doc, *analyze_and_plan(doc, engine)) for doc in docs]


def _simulate(
    planned: list[_Planned], config: PipelineConfig
) -> tuple[list[ParsedDocument], PipelineMetrics]:
    """The event loop over laid-out and planned documents."""
    store = DocumentStore([doc for doc, _analyses, _plan in planned])
    backend = MockBackend(store, config.resolved_experts())
    collector = _Collector(config.engine.workers)
    sim = _Sim()
    jobs = [_DocJob(i, *p) for i, p in enumerate(planned)]
    _drive(sim, jobs, config, backend, collector)
    sim.run()

    wall = sim.now
    pages = sum(len(j.doc.pages) for j in jobs)
    metrics = collector.finish(config.mode, wall, len(jobs), pages)
    for job in jobs:
        if job.parsed is None:
            raise RuntimeError(f"document {job.doc.doc_id} never completed")
    outputs = [job.parsed for job in jobs]
    failed = [parsed for parsed in outputs if parsed.failed_tasks]
    if config.strict and failed:
        raise StrictModeFailure(failed[0].doc_id, list(failed[0].failed_tasks))
    return outputs, metrics


def _descriptor_swapper(config: PipelineConfig, backend: MockBackend) -> Callable[[int], None]:
    """swap(index) puts in force the descriptor_updates due at the document
    with that admission index; call it before any of the document's work."""
    updates = deque(sorted(config.descriptor_updates, key=lambda update: update[0]))

    def swap(index: int) -> None:
        while updates and updates[0][0] <= index:
            backend.descriptors = updates.popleft()[1]

    return swap


class _StageWorker:
    """Single-threaded stage with a FIFO of jobs and a modeled cost."""

    def __init__(self, sim, collector, name: str, cost_fn, done_fn):
        self.sim = sim
        self.collector = collector
        self.name = name
        self.cost_fn = cost_fn
        self.done_fn = done_fn
        self.queue: deque = deque()
        self.busy = False

    def submit(self, job) -> None:
        self.queue.append(job)
        self._try_next()

    def _try_next(self) -> None:
        if self.busy or not self.queue:
            return
        job = self.queue.popleft()
        self.busy = True
        cost = self.cost_fn(job)
        self.collector.charge_stage(self.name, cost)

        def complete() -> None:
            self.busy = False
            self.done_fn(job)
            self._try_next()

        self.sim.after(cost, complete)


def _drive(sim, jobs, config, backend, collector) -> None:
    """The one driver: the mode sets how many documents are in flight, how
    many expert workers serve them, and whether tasks stream or are held."""
    engine = config.engine
    streamed = config.mode is Mode.PIPELINE_PARALLEL
    docs_in_flight = engine.max_in_flight_docs if streamed else 1
    workers = 1 if config.mode is Mode.SEQUENTIAL else engine.workers
    jobs_by_doc = {j.doc.doc_id: j for j in jobs}
    admission = deque(jobs)
    swap = _descriptor_swapper(config, backend)
    state = {"in_flight": 0}

    task_queues: dict[str, QueueState] = {m: QueueState(m) for m in backend.descriptors}
    timer_armed: dict[str, float] = {}
    waiting_dispatch: deque = deque()

    def on_task_done(task, outcome) -> None:
        job = jobs_by_doc[task.doc_id]
        job.outcomes[task.task_id] = outcome
        maybe_gather(job)

    def maybe_gather(job) -> None:
        if (job.dispatch_done and len(job.outcomes) == len(job.plan.tasks)
                and not job.gathering):
            job.gathering = True
            gather_worker.submit(job)

    def wake_dispatchers() -> None:
        # Drain a snapshot: a still-blocked producer re-registers itself and
        # must wait for the next wake, not spin here.
        pending = list(waiting_dispatch)
        waiting_dispatch.clear()
        for resume in pending:
            resume()

    pool = _ExpertPool(sim, config, backend, collector, on_task_done, wake_dispatchers, workers)

    # --- batching over bounded task queues ---------------------------------

    def try_form(modality: str) -> None:
        queue = task_queues[modality]
        size = max(min(engine.max_batch, engine.queue_capacity,
                       pool.descriptors[modality].max_batch), 1)
        while True:
            batch = batch_stack(queue, sim.now, size, engine.max_wait_ms)
            if batch is None:
                break
            pool.offer(batch)
            wake_dispatchers()
        arm_timer(modality)

    def arm_timer(modality: str) -> None:
        queue = task_queues[modality]
        if not queue.entries:
            return
        head_time = queue.entries[0][1]
        deadline = head_time + engine.max_wait_ms
        if timer_armed.get(modality) == deadline:
            return
        timer_armed[modality] = deadline

        def fire() -> None:
            if timer_armed.get(modality) != deadline:
                return
            timer_armed.pop(modality, None)
            try_form(modality)

        sim.at(deadline, fire)

    # --- stage workers ------------------------------------------------------

    def admit_next() -> None:
        if not admission or state["in_flight"] >= docs_in_flight:
            return
        job = admission.popleft()
        swap(job.index)
        state["in_flight"] += 1
        preprocess_worker.submit(job)

    preprocess_worker = _StageWorker(
        sim, collector, "preprocess",
        cost_fn=lambda j: engine.preprocess_ms_per_page * max(len(j.doc.pages), 1),
        done_fn=lambda j: layout_worker.submit(j),
    )

    layout_worker = _StageWorker(
        sim, collector, "layout",
        cost_fn=lambda j: engine.layout_ms_per_page * max(len(j.doc.pages), 1),
        done_fn=lambda j: dispatcher.submit(j),
    )

    class _Dispatcher:
        """Streams each task into its bounded queue, one dispatch step each."""

        def __init__(self):
            self.queue: deque = deque()
            self.job = None
            self.idx = 0

        def submit(self, job) -> None:
            self.queue.append(job)
            self._try_next()

        def _try_next(self) -> None:
            if self.job is not None or not self.queue:
                return
            self.job = self.queue.popleft()
            self.idx = 0
            self._step()

        def _step(self) -> None:
            job = self.job
            if self.idx >= len(job.plan.tasks):
                job.dispatch_done = True
                self.job = None
                maybe_gather(job)
                self._try_next()
                return
            collector.charge_stage("dispatch", engine.dispatch_ms_per_task)
            sim.after(engine.dispatch_ms_per_task, self._enqueue)

        def _enqueue(self) -> None:
            job = self.job
            task = job.plan.tasks[self.idx]
            queue = task_queues[task.modality]
            # Backpressure: all admitted-but-unstarted work for the modality
            # (queued tasks plus formed batches) counts against capacity.
            pending = len(queue) + pool.ready_tasks(task.modality)
            if pending >= engine.queue_capacity:
                waiting_dispatch.append(self._enqueue)
                return
            queue.push(task, sim.now)
            collector.tasks_dispatched += 1
            collector.record_depth(task.modality, len(queue))
            self.idx += 1
            try_form(task.modality)
            self._step()

    def dispatched(job) -> None:
        # Held tasks skip the bounded queues: nothing drains those before
        # this flush, so a document planning more than queue_capacity tasks
        # would wait on itself forever.
        collector.tasks_dispatched += len(job.plan.tasks)
        for batch in form_batches(job.plan.tasks, engine.max_batch,
                                  backend_batch_caps(backend)):
            pool.offer(batch)
        job.dispatch_done = True
        maybe_gather(job)

    if streamed:
        dispatcher = _Dispatcher()
    else:
        dispatcher = _StageWorker(
            sim, collector, "dispatch",
            cost_fn=lambda j: engine.dispatch_ms_per_task * len(j.plan.tasks),
            done_fn=dispatched,
        )

    gather_worker = _StageWorker(
        sim, collector, "gather",
        cost_fn=lambda j: engine.gather_ms_per_doc
        + engine.gather_ms_per_task * len(j.plan.tasks),
        done_fn=lambda j: consolidate_worker.submit(j),
    )

    consolidate_worker = _StageWorker(
        sim, collector, "consolidate",
        cost_fn=lambda j: engine.consolidate_ms_per_doc,
        done_fn=lambda j: format_worker.submit(j),
    )

    def complete(job) -> None:
        job.parsed = assemble_document(job.doc, engine, job.analyses, job.plan,
                                       job.outcomes).parsed
        collector.doc_latency[job.doc.doc_id] = sim.now
        state["in_flight"] -= 1
        admit_next()

    format_worker = _StageWorker(
        sim, collector, "format",
        cost_fn=lambda j: engine.format_ms_per_doc,
        done_fn=complete,
    )

    for _ in range(docs_in_flight):
        admit_next()


# ---------------------------------------------------------------------------
# Scaling and reports
# ---------------------------------------------------------------------------


@dataclass
class ScalingPoint:
    workers: int
    throughput_pps: float


@dataclass
class ScalingReport:
    points: list[ScalingPoint]
    slope: float
    intercept: float
    r_squared: float
    efficiency: float  # per-worker efficiency at the largest count

    def to_report(self) -> dict:
        return {
            "points": [
                {"workers": p.workers, "throughput_pps": round(p.throughput_pps, 6)}
                for p in self.points
            ],
            "slope": round(self.slope, 6),
            "intercept": round(self.intercept, 6),
            "r_squared": round(self.r_squared, 6),
            "efficiency": round(self.efficiency, 6),
        }


def contention_free_config(seed: int = 0, max_workers: int = 8,
                           engine: EngineConfig | None = None) -> PipelineConfig:
    """Scaling-benchmark preset: no replica cap binds below max_workers and
    enough documents stay in flight to keep every worker fed."""
    base = engine or EngineConfig()
    return PipelineConfig(
        mode=Mode.PIPELINE_PARALLEL,
        engine=base.copy(max_in_flight_docs=max(base.max_in_flight_docs, 2 * max_workers)),
        experts=default_descriptors(max_batch=base.max_batch, replicas=max_workers, seed=seed),
        seed=seed,
    )


def simulate_scaling(
    docs: list[DocumentIR], worker_counts: list[int], config: PipelineConfig
) -> ScalingReport:
    """Same seeded workload under each worker count, with a least-squares fit."""
    if not worker_counts or sorted(worker_counts) != list(worker_counts):
        raise ValueError("worker_counts must be nonempty and ascending")
    planned = _plan_docs(docs, config.engine)
    points = []
    for n in worker_counts:
        cfg = dataclasses.replace(config, engine=config.engine.copy(workers=n))
        _outputs, metrics = _simulate(planned, cfg)
        points.append(ScalingPoint(workers=n, throughput_pps=metrics.throughput_pps))
    xs = [p.workers for p in points]
    ys = [p.throughput_pps for p in points]
    slope, intercept, r2 = _least_squares(xs, ys)
    base = points[0]
    top = points[-1]
    efficiency = (top.throughput_pps / base.throughput_pps) / (top.workers / base.workers)
    return ScalingReport(points=points, slope=slope, intercept=intercept, r_squared=r2,
                         efficiency=efficiency)


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def bubble_report(metrics: PipelineMetrics) -> dict:
    """Per-stage idle fractions for one completed run."""
    return {
        "mode": metrics.mode,
        "wall_ms": round(metrics.wall_ms, 6),
        "throughput_pps": round(metrics.throughput_pps, 6),
        "expert_bubble_fraction": round(metrics.bubble_fraction, 6),
        "per_stage": [
            {"stage": s.stage, "bubble_fraction": round(s.bubble_fraction, 6)}
            for s in metrics.per_stage
        ],
    }


def compare_modes(docs: list[DocumentIR], config: PipelineConfig) -> dict:
    """The three-way mode comparison on one workload."""
    planned = _plan_docs(docs, config.engine)
    rows = []
    for mode in (Mode.SEQUENTIAL, Mode.PARALLEL_GATHER, Mode.PIPELINE_PARALLEL):
        _outputs, metrics = _simulate(planned, dataclasses.replace(config, mode=mode))
        rows.append(bubble_report(metrics))
    return {"workload_docs": len(docs), "modes": rows}

