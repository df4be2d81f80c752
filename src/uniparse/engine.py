"""End-to-end document processing assembled from the stage primitives.

This is the synchronous path used by the CLI and by tests; the runtime module
drives the same primitives under a simulated clock for benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EngineConfig
from .consolidate import FlowItem, Partner, consolidate
from .dispatch import (
    Batch,
    DispatchPlan,
    GatherResult,
    Task,
    TaskFailure,
    gather,
    plan_document,
)
from .docmodel import DocumentIR
from .experts import (
    DocumentStore,
    ExpertError,
    ExpertResponse,
    MockBackend,
    RetryableExpertError,
    default_descriptors,
)
from .formats import ParsedDocument
from .layout import LayoutTree, build_page_tree
from .ordering import OrderUnit, order_units


class StrictModeFailure(Exception):
    def __init__(self, doc_id: str, failed: list[str]):
        self.doc_id = doc_id
        self.failed = failed
        super().__init__(f"{doc_id}: {len(failed)} task(s) failed fatally")


@dataclass
class PageAnalysis:
    tree: LayoutTree
    units: list[OrderUnit]


def page_trees(doc: DocumentIR, cfg: EngineConfig | None = None) -> list[LayoutTree]:
    """Every page's layout tree: nested, paired and filtered. A plan reads
    only these."""
    cfg = cfg or EngineConfig()
    return [build_page_tree(page.page_index, list(page.detections), cfg) for page in doc.pages]


def analyze_pages(doc: DocumentIR, cfg: EngineConfig | None = None) -> list[PageAnalysis]:
    """Layout tree and ordered units for every page."""
    cfg = cfg or EngineConfig()
    return [PageAnalysis(tree=tree, units=order_units(tree, cfg)) for tree in page_trees(doc, cfg)]


def analyze_and_plan(
    doc: DocumentIR, cfg: EngineConfig | None = None, only_modality: str | None = None
) -> tuple[list[PageAnalysis], DispatchPlan]:
    """Page analyses and the dispatch plan built from their layout trees:
    everything about a document that comes before its experts."""
    analyses = analyze_pages(doc, cfg)
    return analyses, plan_document(doc, [a.tree for a in analyses], cfg,
                                   only_modality=only_modality)


def form_batches(
    tasks: list[Task], max_batch: int, caps: dict[str, int] | None = None
) -> list[Batch]:
    """FIFO per-modality batches, in sorted modality order; the last of a
    modality may be partial. The one batch cutter, for the synchronous
    path and the simulator alike.

    The effective batch size per modality never exceeds the serving expert's
    own max_batch cap.
    """
    by_modality: dict[str, list[Task]] = {}
    for task in tasks:
        by_modality.setdefault(task.modality, []).append(task)
    batches = []
    for modality in sorted(by_modality):
        queue = by_modality[modality]
        size = min(max_batch, caps.get(modality, max_batch)) if caps else max_batch
        for i in range(0, len(queue), size):
            batches.append(Batch(modality, queue[i : i + size]))
    return batches


def backend_batch_caps(backend) -> dict[str, int]:
    descriptors = getattr(backend, "descriptors", None)
    if not descriptors:
        return {}
    return {modality: d.max_batch for modality, d in descriptors.items()}


def call_batch(
    backend, batch: Batch, attempt: int, max_retries: int
) -> dict[str, ExpertResponse | TaskFailure] | None:
    """One expert call for a batch: the outcome of each of its tasks.

    Returns None when the call failed retryably and attempt < max_retries;
    the caller then retries the whole batch with attempt + 1. Any other
    expert error (fatal or protocol), a retryable one on the last attempt,
    or a response whose task ids are not the batch's in request order
    becomes one TaskFailure per task. The synchronous path and every
    simulated runtime mode go through here.
    """
    try:
        responses = backend.process(batch.modality, batch.tasks, attempt=attempt)
    except RetryableExpertError as exc:
        if attempt < max_retries:
            return None
        reason = str(exc)
    except ExpertError as exc:
        reason = str(exc)
    else:
        if [r.task_id for r in responses] == [t.task_id for t in batch.tasks]:
            return {response.task_id: response for response in responses}
        reason = "response items do not match the batch's task ids in request order"
    return {
        task.task_id: TaskFailure(task.task_id, task.modality, task.detection_id, reason)
        for task in batch.tasks
    }


def run_batches(
    batches: list[Batch],
    backend,
    max_retries: int = 3,
) -> dict[str, ExpertResponse | TaskFailure]:
    """Execute batches with whole-batch retry on retryable errors."""
    outcomes: dict[str, ExpertResponse | TaskFailure] = {}
    for batch in batches:
        attempt = 0
        while (result := call_batch(backend, batch, attempt, max_retries)) is None:
            attempt += 1
        outcomes.update(result)
    return outcomes


def build_flow_items(
    doc: DocumentIR,
    analyses: list[PageAnalysis],
    gathered: GatherResult,
) -> list[FlowItem]:
    """Ordered FlowItems across pages from resolved unit content. Each
    partner carries the relation layout recorded with its anchor."""
    items: list[FlowItem] = []
    for analysis in analyses:
        nodes = {n.id: n for n in analysis.tree.iter_nodes()}
        for unit in analysis.units:
            anchor_id = unit.unit_id
            anchor = nodes[anchor_id]
            partners = []
            for member_id in unit.member_ids:
                if member_id != anchor_id:
                    member = nodes[member_id]
                    partners.append(Partner(member.anchor[0], member.category, member_id,
                                            gathered.resolved.get(member_id)))
            items.append(
                FlowItem(
                    item_id=anchor_id,
                    page_index=analysis.tree.page_index,
                    category=anchor.category,
                    box=unit.hull,
                    payload=gathered.resolved.get(anchor_id),
                    partners=tuple(partners),
                    group_hint=anchor.detection.group_hint,
                )
            )
    return items


@dataclass
class ProcessResult:
    parsed: ParsedDocument
    analyses: list[PageAnalysis]
    plan: DispatchPlan
    gathered: GatherResult


def assemble_document(
    doc: DocumentIR,
    cfg: EngineConfig,
    analyses: list[PageAnalysis],
    plan: DispatchPlan,
    outcomes: dict[str, ExpertResponse | TaskFailure],
) -> ProcessResult:
    """Gather, flow items and consolidation after the experts: the one place
    a ParsedDocument is assembled, for the synchronous path and the simulator."""
    gathered = gather(plan, outcomes)
    items = build_flow_items(doc, analyses, gathered)
    root = consolidate(items, doc.outline, cfg, doc.language_tag)
    parsed = ParsedDocument(
        doc_id=doc.doc_id,
        root=root,
        language_tag=doc.language_tag,
        tokens_emitted=plan.tokens_emitted,
        tokens_resolved=gathered.tokens_resolved,
        tokens_failed=gathered.tokens_failed,
        failed_tasks=tuple(sorted(f.task_id for f in gathered.failures.values())),
    )
    return ProcessResult(parsed=parsed, analyses=analyses, plan=plan, gathered=gathered)


def process_document(
    doc: DocumentIR,
    cfg: EngineConfig | None = None,
    backend=None,
    only_modality: str | None = None,
    strict: bool = False,
) -> ProcessResult:
    """The full pipeline for one document with a synchronous backend: by
    default the mock experts under the table `uniparse parse` and
    PipelineConfig.resolved_experts use, capped at cfg.max_batch."""
    cfg = cfg or EngineConfig()
    if backend is None:
        backend = MockBackend(DocumentStore([doc]), default_descriptors(max_batch=cfg.max_batch))
    analyses, plan = analyze_and_plan(doc, cfg, only_modality)
    batches = form_batches(plan.tasks, cfg.max_batch, backend_batch_caps(backend))
    outcomes = run_batches(batches, backend, max_retries=cfg.max_retries)
    result = assemble_document(doc, cfg, analyses, plan, outcomes)
    if strict and result.parsed.failed_tasks:
        raise StrictModeFailure(doc.doc_id, list(result.parsed.failed_tasks))
    return result
