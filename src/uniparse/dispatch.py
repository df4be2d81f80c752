"""Routing layout nodes to modality queues, placeholder substitution for
inline elements, the batching timing rule (batch_stack: which queued tasks
are due; engine.form_batches cuts them), and result gathering.

Placeholder tokens are the exact literal "[[UPH:" + kind + ":" + id + "]]".
They exist only between dispatch and gather; no emitted format may contain
one. Gather replaces every occurrence of each planned token: a failed
child's token with "[[FAILED:" + modality + ":" + id + "]]", the token of a
child that got no task with the empty span, wherever in the answer the
expert wrote it. Then it deletes any token literal still left in an answer
of any kind.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .config import EngineConfig
from .docmodel import DocumentIR, SemanticCategory
from .experts import MODALITIES, ExpertResponse, Task
from .layout import LayoutNode, LayoutTree
from .payloads import (
    SCALARS,
    Cell,
    ChartTable,
    ContentPayload,
    Reaction,
    TableGrid,
    render_inline,
)

PLACEHOLDER_PREFIX = "[[UPH:"
_TOKEN = re.compile(re.escape(PLACEHOLDER_PREFIX) + r"[^\[\]]*\]\]")

ROUTE_TABLE: dict[SemanticCategory, str | None] = {
    SemanticCategory.DOCUMENT_TITLE: "ocr",
    SemanticCategory.SECTION_TITLE: "ocr",
    SemanticCategory.PARAGRAPH: "ocr",
    SemanticCategory.REFERENCES: "ocr",
    SemanticCategory.TABLE_OF_CONTENTS: "ocr",
    SemanticCategory.KEY_VALUE_ITEM: "ocr",
    SemanticCategory.CODE_BLOCK: "ocr",
    SemanticCategory.FOOTNOTE: "ocr",
    SemanticCategory.PAGE_NUMBER: "ocr",
    SemanticCategory.CAPTION: "ocr",
    SemanticCategory.TABLE_FOOTNOTE: "ocr",
    SemanticCategory.FORMULA_ID: "ocr",
    SemanticCategory.MOLECULE_IDENTIFIER: "ocr",
    SemanticCategory.MARKUSH_DESCRIPTION: "ocr",
    SemanticCategory.FIGURE_LEGEND: "ocr",
    SemanticCategory.FORMULA: "formula",
    SemanticCategory.FORMULA_INLINE: "formula",
    SemanticCategory.TABLE: "table_structure",
    SemanticCategory.MOLECULE: "ocsr",
    SemanticCategory.CHEMICAL_REACTION: "reaction",
    SemanticCategory.CHART: "chart",
    SemanticCategory.FIGURE: "caption",
    SemanticCategory.IMAGE: "caption",
    SemanticCategory.HEADER: None,
    SemanticCategory.FOOTER: None,
    SemanticCategory.SIDEBAR: None,
    SemanticCategory.WATERMARK: None,
    SemanticCategory.DIVIDER_LINE: None,
}

# The placeholder kind string of each category: its value, or a short name
# for an inline-capable one whose value is long.
PLACEHOLDER_KINDS: dict[SemanticCategory, str] = {
    category: category.value for category in SemanticCategory} | {
    SemanticCategory.FORMULA_INLINE: "formula",
    SemanticCategory.CHEMICAL_REACTION: "reaction",
}


# ROUTE_TABLE with captioning off: figures and images get no task.
_ROUTE_TABLE_NO_CAPTIONS = {category: None if modality == "caption" else modality
                            for category, modality in ROUTE_TABLE.items()}


def route_table(captioning_enabled: bool) -> dict[SemanticCategory, str | None]:
    """The modality each category routes to, None for no task: one lookup
    per node, with no per-node test of the captioning switch."""
    return ROUTE_TABLE if captioning_enabled else _ROUTE_TABLE_NO_CAPTIONS


def placeholder_token(category: SemanticCategory, detection_id: str) -> str:
    return f"[[UPH:{PLACEHOLDER_KINDS[category]}:{detection_id}]]"


@dataclass
class Batch:
    """Tasks of one modality for one expert call. Until an expert starts it,
    the runtime may add its modality's queued tasks, up to the batch size;
    attempt counts the calls it has failed retryably."""

    modality: str
    tasks: list[Task]
    attempt: int = 0


def make_placeholders(parent: LayoutNode) -> list[tuple[str, str]]:
    """(placeholder token, child detection id) for each of a parent's inline
    children, in reading order.

    Children sort into line bands (vertical overlap >= 0.5 joins a band),
    bands top-to-bottom and left-to-right within a band. The k-th token
    replaces the k-th inline marker of the parent's text stream.
    """
    return [(placeholder_token(child.category, child.id), child.id)
            for child in _reading_sorted(parent.children)]


def _reading_sorted(children: list[LayoutNode]) -> list[LayoutNode]:
    if len(children) < 2:
        return children  # already in reading order, with no band to form
    remaining = sorted(children, key=lambda n: (n.box.y0, n.box.x0, n.id))
    bands: list[list[LayoutNode]] = []
    for node in remaining:
        placed = False
        for band in bands:
            ref = band[0].box
            overlap = min(ref.y1, node.box.y1) - max(ref.y0, node.box.y0)
            min_h = min(ref.height, node.box.height)
            if min_h > 0 and overlap / min_h >= 0.5:
                band.append(node)
                placed = True
                break
        if not placed:
            bands.append([node])
    out: list[LayoutNode] = []
    for band in bands:
        out.extend(sorted(band, key=lambda n: (n.box.x0, n.id)))
    return out


@dataclass
class DispatchPlan:
    """Every task for one document plus the placeholder bookkeeping."""

    doc_id: str
    tasks: list[Task] = field(default_factory=list)
    # parent detection id -> ordered (token, child detection id) pairs
    parent_tokens: dict[str, list[tuple[str, str]]] = field(default_factory=dict)

    @property
    def tokens_emitted(self) -> int:
        return sum(len(pairs) for pairs in self.parent_tokens.values())


def plan_document(
    doc: DocumentIR,
    trees: list[LayoutTree],
    cfg: EngineConfig | None = None,
    only_modality: str | None = None,
) -> DispatchPlan:
    """Build the task list for a document from its filtered layout trees: only
    only_modality's tasks when it is given (one of experts.MODALITIES)."""
    if only_modality is not None and only_modality not in MODALITIES:
        raise ValueError(f"unknown modality {only_modality!r}")
    cfg = cfg or EngineConfig()
    doc_id = doc.doc_id
    plan = DispatchPlan(doc_id=doc_id)
    routes = route_table(cfg.captioning_enabled)
    if only_modality is not None:
        routes = {category: modality if modality == only_modality else None
                  for category, modality in routes.items()}
    for tree in trees:
        page_index = tree.page_index
        for node in tree.iter_nodes():
            modality = routes[node.category]
            if modality is None:
                continue
            placeholders: tuple[str, ...] = ()
            if node.children:
                pairs = make_placeholders(node)
                plan.parent_tokens[node.id] = pairs
                placeholders = tuple(token for token, _child in pairs)
            plan.tasks.append(Task(
                task_id=f"{doc_id}/{node.id}",
                modality=modality,
                doc_id=doc_id,
                page_index=page_index,
                detection_id=node.id,
                placeholders=placeholders,
            ))
    return plan


# Tolerance for clock arithmetic: an age within a nanosecond of the wait
# threshold counts as aged out (timers fire at head_time + max_wait, which
# floating-point addition may round just below the threshold).
_AGE_EPS = 1e-9


def batch_stack(queue: deque, now: float, max_batch: int, max_wait_ms: float) -> int:
    """How many tasks at the head of a FIFO queue of (task, enqueued_at)
    pairs are due now: every full batch's worth of max_batch, plus the rest
    once the oldest of the rest has waited max_wait_ms."""
    full = len(queue) - len(queue) % max_batch
    if full < len(queue) and now - queue[full][1] >= max_wait_ms - _AGE_EPS:
        return len(queue)
    return full


@dataclass(frozen=True, slots=True)
class TaskFailure:
    task_id: str
    modality: str
    detection_id: str
    reason: str


class MissingResult(Exception):
    def __init__(self, task_id: str):
        self.task_id = task_id
        super().__init__(f"task {task_id} neither completed nor failed")


@dataclass
class GatherResult:
    resolved: dict[str, ContentPayload]
    failures: dict[str, TaskFailure]  # by detection id
    tokens_resolved: int = 0
    tokens_failed: int = 0


def gather(
    plan: DispatchPlan,
    outcomes: dict[str, ExpertResponse | TaskFailure],
) -> GatherResult:
    """Reintegrate expert results: replace every occurrence of each planned
    placeholder token in its parent's answer with the child's rendered
    payload, a FAILED diagnostic span, or the empty span when the child got
    no task (filtered by only_modality, or a figure without captioning).

    Each planned token counts once: failed when its child failed or the
    parent's answer does not carry it (a failed parent carries none),
    resolved otherwise. So tokens_emitted == tokens_resolved + tokens_failed.
    Then every token literal still left in any answer, of any kind, one the
    plan did not make for that answer, is deleted and counted nowhere.
    The result depends only on the outcome table, never on completion order.
    """
    resolved: dict[str, ContentPayload] = {}
    failures: dict[str, TaskFailure] = {}
    for task in plan.tasks:
        outcome = outcomes.get(task.task_id)
        if outcome is None:
            raise MissingResult(task.task_id)
        if isinstance(outcome, TaskFailure):
            failures[task.detection_id] = outcome
        else:
            resolved[task.detection_id] = outcome.payload

    # Parents are bottom-layer detections and children top-layer ones, so no
    # child's payload is itself rewritten here.
    tokens_failed = 0
    for parent_id, pairs in plan.parent_tokens.items():
        answer = resolved.get(parent_id)
        runs = _runs(answer)
        spans: list[tuple[str, str]] = []
        for token, child_id in pairs:
            failure = failures.get(child_id)
            tokens_failed += failure is not None or not any(token in run for run in runs)
            if failure is not None:
                spans.append((token, f"[[FAILED:{failure.modality}:{child_id}]]"))
            elif child_id in resolved:
                spans.append((token, render_inline(resolved[child_id])))
            else:
                spans.append((token, ""))
        if runs:
            resolved[parent_id] = _map_runs(answer, lambda run: _fill(run, spans))
    for detection_id, answer in resolved.items():
        if PLACEHOLDER_PREFIX in "".join(_runs(answer)):
            resolved[detection_id] = _map_runs(answer, _scrub)
    return GatherResult(
        resolved=resolved,
        failures=failures,
        tokens_resolved=plan.tokens_emitted - tokens_failed,
        tokens_failed=tokens_failed,
    )


def _runs(answer: ContentPayload | None) -> tuple[str, ...]:
    """The text runs of an answer of any kind: where its tokens can land."""
    if isinstance(answer, SCALARS):
        return (answer.value,)
    if isinstance(answer, ChartTable):
        answer = answer.grid
    if isinstance(answer, TableGrid):
        return tuple(run for cell in answer.cells for run in cell.content)
    if isinstance(answer, Reaction):
        return (*answer.reactants, *answer.conditions, *answer.products)
    return ()


def _fill(run: str, spans: list[tuple[str, str]]) -> str:
    """run with every occurrence of each token replaced by its span."""
    for token, span in spans:
        run = run.replace(token, span)
    return run


def _scrub(run: str) -> str:
    """run with every token literal left in it deleted."""
    return _TOKEN.sub("", run) if PLACEHOLDER_PREFIX in run else run


def _map_runs(answer: ContentPayload, fn: Callable[[str], str]) -> ContentPayload:
    """answer with each of its text runs mapped through fn."""
    if isinstance(answer, SCALARS):
        return type(answer)(fn(answer.value))
    if isinstance(answer, ChartTable):
        return ChartTable(_map_runs(answer.grid, fn))
    if isinstance(answer, Reaction):
        return Reaction(tuple(map(fn, answer.reactants)), tuple(map(fn, answer.conditions)),
                        tuple(map(fn, answer.products)))
    return TableGrid(answer.rows, answer.cols, tuple(
        Cell(c.row, c.col, c.row_span, c.col_span, tuple(fn(run) for run in c.content))
        for c in answer.cells))
