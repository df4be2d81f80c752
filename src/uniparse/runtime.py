"""Pipeline execution engine and simulator.

A run holds only the documents in flight. run_pipeline lays out and plans a
document (engine.analyze_and_plan) when the driver admits it, and drops its
analyses, plan and expert outcomes once its format stage has assembled it. So
it holds the plan state of at most the documents in flight (max_in_flight_docs
in pipe, one in par and seq) plus the outputs it returns. The host work moves
no virtual clock: the layout stage charges layout_ms_per_page, whatever the
layout took. Layout and planning read neither the mode, the worker count nor
the descriptor table, so compare_modes and simulate_scaling plan each document
once and keep only its DispatchPlan; all their runs share the plans and one
MockBackend. They return only metrics, so their runs assemble no document,
and the plan is made from the page trees alone (engine.page_trees), without
the reading order that only assembly reads. With strict=True they raise
from the recorded TaskFailures.

A virtual (discrete-event) clock drives one driver over the document stream.
Every mode runs the same stage workers (preprocess, layout, dispatch, gather,
consolidate, format), feeds the same per-modality task queues, cuts batches
the same way (dispatch.batch_stack says which queued tasks are due,
engine.form_batches cuts them) for the same expert pool, and (in
run_pipeline) finishes documents with engine.assemble_document. The pool is
the driver's own state beside its task queues: per modality the formed
batches no worker has started and the batches in flight, and the idle
workers. Its steps are the driver's closures: a formed batch is offered to
the ready queue, a free worker starts the modality balance picks (capped by
its replicas), and a served batch lands its outcomes or is re-offered after
its backoff. The mode sets five values:

    value                    pipe                par       seq
    documents in flight      max_in_flight_docs  1         1
    expert workers           workers             workers   1
    tasks per dispatch step  1                   document  document
    batch wait               max_wait_ms         0         0
    queue bound              queue_capacity      none      none

Dispatch is a stage worker like the other five. The layout stage splits each
document into dispatch steps: one per task in pipe, the whole document in par
and seq, and in every mode one empty, zero-cost step for a document with no
tasks. A step costs dispatch_ms_per_task per task. The queue bound is the
dispatch stage refusing a step: it holds the step, serves nothing else, and
offers it again whenever the expert pool takes a batch. A whole-document
step (par, seq) flushes every queue it fed in sorted modality order; it
records no queue depth. A document goes to gather when its last outcome
lands, or when its empty step ends. In sequential, a batch that failed
retryably is re-offered after its backoff and the single worker serves
other ready batches meanwhile; it idles only when nothing else is ready.

Document outputs are byte-identical across modes and worker counts (content
is pure); only the schedule, and therefore the metrics, differ. With failure
injection enabled, batching composition differs between modes, so tasks that
exhaust retries can diverge; keep failure_rate at 0 when comparing outputs.

Batch size, in every mode, is at most min(engine max_batch, the queue bound,
the serving expert's max_batch in the run's descriptor table). A batch's
contents are settled when an expert worker starts it: a first-attempt batch
below that size first takes tasks from the head of its modality's queue, up
to the size, and the modality's timer is re-armed for the new head. So a
batch its timer cut while every worker was busy does not start at the fill
it was cut at. A retried batch keeps its tasks. Only pipe mode has queued
tasks when a batch starts; a whole-document step flushes its queues.

No expert error aborts a run: a fatal or protocol error, a response that
does not answer the batch's tasks in request order, or a retryable error that
exhausts max_retries, becomes one TaskFailure per task of the batch in every
mode. It counts in tasks_failed, and with strict=True the run raises
StrictModeFailure once it has finished.

The run charges one record per stage and per expert modality as it goes;
finish derives idle time, bubble, utilization and throughput. A report is
its record with every float rounded to 6 places (PipelineMetrics drops
doc_latency_ms and nests its task counters under "tasks").
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping

from .config import EngineConfig
from .dispatch import Batch, DispatchPlan, TaskFailure, batch_stack, plan_document
from .docmodel import DocumentIR
from .engine import (
    PageAnalysis,
    StrictModeFailure,
    analyze_and_plan,
    assemble_document,
    call_batch,
    form_batches,
    page_trees,
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

    def resolved_experts(self) -> dict[str, ExpertDescriptor]:
        if self.experts is not None:
            return self.experts
        return default_descriptors(max_batch=self.engine.max_batch, seed=self.seed)


@dataclass
class StageMetrics:
    stage: str
    busy_ms: float = 0.0
    idle_ms: float = 0.0
    bubble_fraction: float = 0.0


@dataclass
class ExpertStageMetrics:
    modality: str
    busy_ms: float = 0.0
    batches: int = 0
    tasks: int = 0
    retries: int = 0
    utilization: float = 0.0  # busy_ms / wall_ms summed over replicas, so it can exceed 1


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
    max_queue_depth: dict[str, int]
    doc_latency_ms: dict[str, float]  # completion time since t=0, not admission to done
    tasks_dispatched: int
    tasks_completed: int
    tasks_failed: int
    retries: int

    def to_report(self) -> dict:
        """The record without doc_latency_ms, the task counters under "tasks"."""
        report = dataclasses.asdict(self)
        del report["doc_latency_ms"]
        report["tasks"] = {
            "dispatched": report.pop("tasks_dispatched"),
            "completed": report.pop("tasks_completed"),
            "failed": report.pop("tasks_failed"),
            "retries": report.pop("retries"),
        }
        return _rounded(report)


def _rounded(value):
    """value with every float in it, through lists and dicts, rounded to 6 places."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return round(value, 6) if isinstance(value, float) else value


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
    """One document of a run. A job that comes without a plan is laid out and
    planned when it is admitted and assembled by its format stage; either
    way its analyses, plan and outcomes go once it is done, leaving only
    the output and the ids of its failed tasks."""

    def __init__(self, doc: DocumentIR, plan: DispatchPlan | None):
        self.doc = doc
        self.analyses: list[PageAnalysis] | None = None
        self.plan = plan
        self.outcomes: dict = {}
        self.parsed: ParsedDocument | None = None
        self.failed: tuple[str, ...] | None = None  # sorted; None until done


class _Collector:
    """Charges one record per stage and per modality as the run goes; finish
    derives the rest."""

    def __init__(self, workers: int):
        self.workers = workers
        # the expert stage's busy time is summed over every expert worker
        self.stages = {s: StageMetrics(s) for s in (*CPU_STAGES, EXPERT_STAGE)}
        self.experts: dict[str, ExpertStageMetrics] = {}
        self.max_depth: dict[str, int] = {}
        self.doc_latency: dict[str, float] = {}
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.retries = 0

    def charge_stage(self, stage: str, ms: float) -> None:
        self.stages[stage].busy_ms += ms

    def charge_expert(self, modality: str, ms: float, tasks: int) -> None:
        self.stages[EXPERT_STAGE].busy_ms += ms
        record = self.experts.setdefault(modality, ExpertStageMetrics(modality))
        record.busy_ms += ms
        record.batches += 1
        record.tasks += tasks

    def record_retry(self, modality: str) -> None:
        # a retried batch was charged first
        self.retries += 1
        self.experts[modality].retries += 1

    def record_outcome(self, outcome) -> None:
        if isinstance(outcome, TaskFailure):
            self.tasks_failed += 1
        else:
            self.tasks_completed += 1

    def record_depth(self, modality: str, depth: int) -> None:
        if depth > self.max_depth.get(modality, 0):
            self.max_depth[modality] = depth

    def finish(self, mode: Mode, wall_ms: float, docs: int, pages: int) -> PipelineMetrics:
        # A zero-cost run has no wall time and, by definition, no idle time.
        degenerate = wall_ms <= 0.0
        wall = max(wall_ms, 1e-9)
        if not degenerate:
            for record in self.stages.values():
                capacity = wall * self.workers if record.stage == EXPERT_STAGE else wall
                record.idle_ms = max(capacity - record.busy_ms, 0.0)
                record.bubble_fraction = record.idle_ms / capacity
        for record in self.experts.values():
            record.utilization = record.busy_ms / wall
        return PipelineMetrics(
            mode=mode.value,
            workers=self.workers,
            wall_ms=wall_ms,
            docs=docs,
            pages=pages,
            throughput_pps=0.0 if degenerate else pages / (wall / 1000.0),
            bubble_fraction=self.stages[EXPERT_STAGE].bubble_fraction,
            per_stage=list(self.stages.values()),
            per_expert=sorted(self.experts.values(), key=lambda record: record.modality),
            max_queue_depth=dict(sorted(self.max_depth.items())),
            doc_latency_ms=self.doc_latency,
            tasks_dispatched=self.tasks_dispatched,
            tasks_completed=self.tasks_completed,
            tasks_failed=self.tasks_failed,
            retries=self.retries,
        )


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------


def run_pipeline(
    docs: list[DocumentIR], config: PipelineConfig
) -> tuple[list[ParsedDocument], PipelineMetrics]:
    """Run the document stream under the configured mode and virtual clock."""
    ((jobs, metrics),) = _simulate(docs, [None] * len(docs), [config])
    return [job.parsed for job in jobs], metrics


def _plan_docs(docs: list[DocumentIR], engine: EngineConfig) -> list[DispatchPlan]:
    """Every document's dispatch plan, for a sweep's runs to share: its page
    trees and plan only, as a sweep assembles nothing."""
    return [plan_document(doc, page_trees(doc, engine), engine) for doc in docs]


def _simulate(
    docs: list[DocumentIR], plans: list[DispatchPlan | None], configs: list[PipelineConfig]
) -> Iterator[tuple[list[_DocJob], PipelineMetrics]]:
    """The event loop over the documents once per config, one job each: a
    None plan is made at admission and its document assembled, a given plan
    is only scheduled. The configs differ at most in mode and worker count,
    so one MockBackend serves every run."""
    # a task names its document by id, so one run cannot hold two alike
    if len({doc.doc_id for doc in docs}) != len(docs):
        raise ValueError("document ids must be unique within a run")
    backend = MockBackend(DocumentStore(docs), configs[0].resolved_experts())
    for config in configs:
        jobs = [_DocJob(doc, plan) for doc, plan in zip(docs, plans)]
        metrics = _drive(jobs, config, backend)
        for job in jobs:
            if job.failed is None:
                raise RuntimeError(f"document {job.doc.doc_id} never completed")
        failed = [job for job in jobs if job.failed]
        if config.strict and failed:
            raise StrictModeFailure(failed[0].doc.doc_id, list(failed[0].failed))
        yield jobs, metrics


class _StageWorker:
    """Single-threaded stage with a FIFO of jobs and a modeled cost. A done_fn
    that returns False refuses its job: the stage holds the job, serves
    nothing else, and hands it on again at each wake until it is taken."""

    def __init__(self, sim, collector, name: str, cost_fn, done_fn):
        self.sim = sim
        self.collector = collector
        self.name = name
        self.cost_fn = cost_fn
        self.done_fn = done_fn
        self.queue: deque = deque()
        self.busy = False
        self.held = None  # a finished job its done_fn refused

    def submit(self, job) -> None:
        self.queue.append(job)
        self._try_next()

    def wake(self) -> None:
        if self.held is not None:
            job, self.held = self.held, None
            self._hand_on(job)

    def _try_next(self) -> None:
        if self.busy or not self.queue:
            return
        job = self.queue.popleft()
        self.busy = True
        cost = self.cost_fn(job)
        self.collector.charge_stage(self.name, cost)
        self.sim.after(cost, lambda: self._hand_on(job))

    def _hand_on(self, job) -> None:
        if self.done_fn(job) is False:
            self.held = job
            return
        self.busy = False
        self._try_next()


def _chain(sim, collector, table, done_fn: Callable) -> Callable:
    """Stage workers for a table of (name, cost_fn), each handing its job to
    the next and the last to done_fn; returns the first one's submit."""
    for name, cost_fn in reversed(table):
        done_fn = _StageWorker(sim, collector, name, cost_fn, done_fn).submit
    return done_fn


def _drive(jobs, config, backend) -> PipelineMetrics:
    """The one driver. The mode sets five values; everything else is shared.
    Runs the jobs to the end and returns the run's metrics."""
    engine = config.engine
    streamed = config.mode is Mode.PIPELINE_PARALLEL
    docs_in_flight = engine.max_in_flight_docs if streamed else 1
    workers = 1 if config.mode is Mode.SEQUENTIAL else engine.workers
    step_tasks = 1 if streamed else None  # None: the whole document in one step
    max_wait_ms = engine.max_wait_ms if streamed else 0.0
    queue_bound = engine.queue_capacity if streamed else None

    sim = _Sim()
    collector = _Collector(workers)

    cap = engine.max_batch if queue_bound is None else min(engine.max_batch, queue_bound)
    descriptors = backend.descriptors
    batch_size = {m: min(cap, d.max_batch) for m, d in descriptors.items()}
    replicas = {m: d.replicas for m, d in descriptors.items()}
    jobs_by_doc: dict[str, _DocJob] = {}  # the documents in flight
    admission = deque(jobs)

    # per modality, FIFO of (task, enqueued_at)
    task_queues: dict[str, deque] = {m: deque() for m in descriptors}
    timer_armed: dict[str, float] = {}
    # the expert pool: per modality, formed batches no worker has started
    # and batches being served; the workers serving none
    ready: dict[str, deque] = {m: deque() for m in descriptors}
    in_flight = {m: 0 for m in descriptors}
    idle = workers

    # --- batching: batch_stack says what is due, form_batches cuts it -------

    def try_form(modality: str) -> None:
        queue = task_queues[modality]
        size = batch_size[modality]
        due = batch_stack(queue, sim.now, size, max_wait_ms)
        if due:
            for batch in form_batches([queue.popleft()[0] for _ in range(due)], size):
                offer(batch)
        arm_timer(modality)

    def arm_timer(modality: str) -> None:
        queue = task_queues[modality]
        if not queue:
            return
        deadline = queue[0][1] + max_wait_ms
        if timer_armed.get(modality) == deadline:
            return
        timer_armed[modality] = deadline

        def fire() -> None:
            if timer_armed.get(modality) != deadline:
                return
            timer_armed.pop(modality, None)
            try_form(modality)

        sim.at(deadline, fire)

    # --- expert pool: balance picks the modality a free worker serves --------

    def offer(batch: Batch) -> None:
        ready[batch.modality].append(batch)
        kick()

    def kick() -> None:
        nonlocal idle
        while idle:
            modality = balance({m: len(q) for m, q in ready.items()}, replicas, in_flight)
            if modality is None:
                return
            idle -= 1
            batch = ready[modality].popleft()
            queue = task_queues[modality]
            # A first-attempt batch below its size takes tasks from the head
            # of its modality's queue, up to the size; a retried batch keeps
            # its tasks. Only pipe mode has queued tasks by then: a held
            # step's flush empties every queue it fed.
            room = min(batch_size[modality] - len(batch.tasks), len(queue))
            if batch.attempt == 0 and room > 0:
                batch.tasks.extend(queue.popleft()[0] for _ in range(room))
                arm_timer(modality)
            in_flight[modality] += 1
            task_ids = tuple(t.task_id for t in batch.tasks)
            latency = descriptors[modality].latency.latency_ms(task_ids, batch.attempt)
            collector.charge_expert(modality, latency, len(batch.tasks))
            outcomes = call_batch(backend, batch, batch.attempt, engine.max_retries)
            sim.after(latency, lambda b=batch, o=outcomes: served(b, o))
            dispatch.wake()  # a batch left the ready queue: backpressure relief

    def served(batch: Batch, outcomes) -> None:
        nonlocal idle
        idle += 1
        in_flight[batch.modality] -= 1
        if outcomes is None:
            collector.record_retry(batch.modality)
            retry = dataclasses.replace(batch, attempt=batch.attempt + 1)
            sim.after(engine.backoff_ms * (2 ** batch.attempt), lambda b=retry: offer(b))
        else:
            for task in batch.tasks:
                outcome = outcomes[task.task_id]
                collector.record_outcome(outcome)
                # An outcome lands in a later event than the step that queued
                # its task, so the last outcome comes after the document's
                # last step.
                job = jobs_by_doc[task.doc_id]
                job.outcomes[task.task_id] = outcome
                if len(job.outcomes) == len(job.plan.tasks):
                    finish_doc(job)
        kick()

    # --- stage workers ------------------------------------------------------

    def admit_next() -> None:
        if not admission or len(jobs_by_doc) >= docs_in_flight:
            return
        job = admission.popleft()
        if job.plan is None:
            job.analyses, job.plan = analyze_and_plan(job.doc, engine)
        jobs_by_doc[job.doc.doc_id] = job
        ingest(job)

    def split(job) -> None:
        """The document's dispatch steps: step_tasks tasks each, the whole
        document in one step, or one empty step when it has no tasks."""
        tasks = job.plan.tasks
        if step_tasks is None or not tasks:
            dispatch.submit((job, tasks))
        else:
            for i in range(0, len(tasks), step_tasks):
                dispatch.submit((job, tasks[i:i + step_tasks]))

    def enqueue(step) -> bool:
        """Feeds a dispatch step's tasks to the task queues; False refuses it."""
        job, tasks = step
        if not tasks:
            finish_doc(job)
            return True
        if queue_bound is not None:
            # Backpressure (a bounded step is one task): all admitted-but-
            # unstarted work for the modality (queued tasks plus formed
            # batches) counts against the bound.
            (task,) = tasks
            queue = task_queues[task.modality]
            if len(queue) + sum(len(b.tasks) for b in ready[task.modality]) >= queue_bound:
                return False
            queue.append((task, sim.now))
            collector.record_depth(task.modality, len(queue))
            fed = (task.modality,)
        else:
            # A whole document's tasks bypass any bound: nothing drains the
            # queues before this step's flush, so it would wait on itself.
            for task in tasks:
                task_queues[task.modality].append((task, sim.now))
            fed = sorted({task.modality for task in tasks})
        collector.tasks_dispatched += len(tasks)
        for modality in fed:
            try_form(modality)
        return True

    def per_page(ms: float) -> Callable:
        return lambda j: ms * max(len(j.doc.pages), 1)

    dispatch = _StageWorker(sim, collector, "dispatch",
                            lambda step: engine.dispatch_ms_per_task * len(step[1]), enqueue)
    ingest = _chain(sim, collector, (
        ("preprocess", per_page(engine.preprocess_ms_per_page)),
        ("layout", per_page(engine.layout_ms_per_page)),
    ), split)

    def complete(job) -> None:
        if job.analyses is None:  # a sweep's shared plan: metrics only
            job.failed = tuple(sorted(task_id for task_id, outcome in job.outcomes.items()
                                      if isinstance(outcome, TaskFailure)))
        else:
            job.parsed = assemble_document(job.doc, engine, job.analyses, job.plan,
                                           job.outcomes).parsed
            job.failed = job.parsed.failed_tasks
        job.analyses = job.plan = job.outcomes = None
        del jobs_by_doc[job.doc.doc_id]
        collector.doc_latency[job.doc.doc_id] = sim.now
        admit_next()

    finish_doc = _chain(sim, collector, (
        ("gather", lambda j: engine.gather_ms_per_doc
         + engine.gather_ms_per_task * len(j.plan.tasks)),
        ("consolidate", lambda j: engine.consolidate_ms_per_doc),
        ("format", lambda j: engine.format_ms_per_doc),
    ), complete)

    for _ in range(docs_in_flight):
        admit_next()
    sim.run()
    # The closures above refer to one another, so only the cyclic collector
    # frees them. Release the backend, whose document store grows with the
    # corpus: what they leave is then the same few objects for any corpus.
    backend = None
    pages = sum(len(job.doc.pages) for job in jobs)
    return collector.finish(config.mode, sim.now, len(jobs), pages)


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
        return _rounded(dataclasses.asdict(self))


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
    configs = [dataclasses.replace(config, engine=config.engine.copy(workers=n))
               for n in worker_counts]
    runs = _simulate(docs, _plan_docs(docs, config.engine), configs)
    points = [ScalingPoint(workers=n, throughput_pps=metrics.throughput_pps)
              for n, (_jobs, metrics) in zip(worker_counts, runs)]
    slope, intercept, r2 = _least_squares(worker_counts, [p.throughput_pps for p in points])
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
        "workers": metrics.workers,
        "wall_ms": round(metrics.wall_ms, 6),
        "throughput_pps": round(metrics.throughput_pps, 6),
        "expert_bubble_fraction": round(metrics.bubble_fraction, 6),
        "per_stage": [
            {"stage": s.stage, "bubble_fraction": round(s.bubble_fraction, 6)}
            for s in metrics.per_stage
        ],
    }


def compare_modes(docs: list[DocumentIR], config: PipelineConfig) -> dict:
    """The three-way mode comparison on one workload: seq, par, pipe."""
    configs = [dataclasses.replace(config, mode=mode) for mode in Mode]
    runs = _simulate(docs, _plan_docs(docs, config.engine), configs)
    return {"workload_docs": len(docs), "modes": [bubble_report(m) for _jobs, m in runs]}

