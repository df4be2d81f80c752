"""Routing layout nodes to modality queues, placeholder substitution for
inline elements, the batching timing rule (batch_stack: which queued tasks
are due; engine.form_batches cuts them), and result gathering.

Placeholder tokens are the exact literal "[[UPH:" + kind + ":" + id + "]]".
They exist only between dispatch and gather; no emitted format may contain
one. Failed tasks resolve to "[[FAILED:" + modality + ":" + id + "]]".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .config import EngineConfig
from .docmodel import DocumentIR, SemanticCategory
from .experts import MODALITIES, ExpertResponse, Task
from .layout import LayoutNode, LayoutTree
from .payloads import (
    Cell,
    ContentPayload,
    TableGrid,
    Text,
    render_inline,
)

PLACEHOLDER_PREFIX = "[[UPH:"

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

# Placeholder kind strings per inline-capable category.
PLACEHOLDER_KINDS: dict[SemanticCategory, str] = {
    SemanticCategory.FORMULA_INLINE: "formula",
    SemanticCategory.MOLECULE: "molecule",
    SemanticCategory.CHEMICAL_REACTION: "reaction",
    SemanticCategory.CHART: "chart",
    SemanticCategory.FIGURE: "figure",
}


def route(node_or_category, captioning_enabled: bool = True) -> str | None:
    category = (
        node_or_category.category
        if isinstance(node_or_category, LayoutNode)
        else node_or_category
    )
    modality = ROUTE_TABLE[category]
    if modality == "caption" and not captioning_enabled:
        return None
    return modality


def placeholder_token(category: SemanticCategory, detection_id: str) -> str:
    kind = PLACEHOLDER_KINDS.get(category, category.value)
    return f"[[UPH:{kind}:{detection_id}]]"


class BatchReason(Enum):
    FULL = "full"
    TIMEOUT = "timeout"


@dataclass
class Batch:
    modality: str
    tasks: list[Task]
    reason: BatchReason
    attempt: int = 0


def make_placeholders(parent: LayoutNode) -> tuple[list[str], dict[str, str]]:
    """Placeholder tokens for a parent's inline children, in reading order.

    Children sort into line bands (vertical overlap >= 0.5 joins a band),
    bands top-to-bottom and left-to-right within a band. The k-th token
    replaces the k-th inline marker of the parent's text stream.
    """
    ordered = _reading_sorted(parent.children)
    tokens: list[str] = []
    token_to_child: dict[str, str] = {}
    for child in ordered:
        token = placeholder_token(child.category, child.id)
        tokens.append(token)
        token_to_child[token] = child.id
    return tokens, token_to_child


def _reading_sorted(children: list[LayoutNode]) -> list[LayoutNode]:
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
    tokens_emitted: int = 0


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
    plan = DispatchPlan(doc_id=doc.doc_id)

    def add_task(node: LayoutNode, page_index: int) -> None:
        modality = route(node, cfg.captioning_enabled)
        if modality is None:
            return
        if only_modality is not None and modality != only_modality:
            return
        placeholders: tuple[str, ...] = ()
        if node.children:
            tokens, mapping = make_placeholders(node)
            plan.parent_tokens[node.id] = [(t, mapping[t]) for t in tokens]
            plan.tokens_emitted += len(tokens)
            placeholders = tuple(tokens)
        plan.tasks.append(
            Task(
                task_id=f"{doc.doc_id}/{node.id}",
                modality=modality,
                doc_id=doc.doc_id,
                page_index=page_index,
                detection_id=node.id,
                placeholders=placeholders,
            )
        )

    for tree in trees:
        for node in tree.top_items():
            add_task(node, tree.page_index)
            for child in node.children:
                add_task(child, tree.page_index)
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


@dataclass(frozen=True)
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
    failures: list[TaskFailure]
    tokens_resolved: int = 0
    tokens_failed: int = 0


def gather(
    plan: DispatchPlan,
    outcomes: dict[str, ExpertResponse | TaskFailure],
) -> GatherResult:
    """Reintegrate expert results: replace every placeholder token with the
    child's rendered payload (or a FAILED diagnostic span).

    The result depends only on the outcome table, never on completion order.
    """
    payloads: dict[str, ContentPayload] = {}
    failures: list[TaskFailure] = []
    failed_ids: set[str] = set()
    for task in plan.tasks:
        outcome = outcomes.get(task.task_id)
        if outcome is None:
            raise MissingResult(task.task_id)
        if isinstance(outcome, TaskFailure):
            failures.append(outcome)
            failed_ids.add(task.detection_id)
        else:
            payloads[task.detection_id] = outcome.payload

    tokens_resolved = 0
    tokens_failed = 0

    def substitute(text: str, pairs: list[tuple[str, str]], task_of: dict[str, Task],
                   found: set[str]) -> str:
        for token, child_id in pairs:
            if token not in text:
                continue
            found.add(token)
            if child_id in failed_ids:
                child_task = task_of.get(child_id)
                modality = child_task.modality if child_task else "unknown"
                replacement = f"[[FAILED:{modality}:{child_id}]]"
            elif child_id in payloads:
                replacement = render_inline(payloads[child_id])
            else:
                # Child produced no task (filtered or passthrough); render an
                # empty span rather than leaking the token.
                replacement = ""
            text = text.replace(token, replacement, 1)
        return text

    def count(pairs: list[tuple[str, str]], found: set[str]) -> None:
        """Each token counts once: failed when its child failed or the
        parent's answer did not carry it, resolved when its child answered."""
        nonlocal tokens_resolved, tokens_failed
        for token, child_id in pairs:
            if child_id in failed_ids or token not in found:
                tokens_failed += 1
            elif child_id in payloads:
                tokens_resolved += 1

    task_of = {t.detection_id: t for t in plan.tasks}

    # A failed parent takes its children's resolution sites down with it;
    # those tokens count as failed so emission stays balanced.
    for det_id, pairs in plan.parent_tokens.items():
        if det_id in failed_ids:
            tokens_failed += len(pairs)

    resolved: dict[str, ContentPayload] = {}
    for det_id, payload in payloads.items():
        pairs = plan.parent_tokens.get(det_id)
        if not pairs:
            resolved[det_id] = payload
            continue
        found: set[str] = set()
        if isinstance(payload, Text):
            resolved[det_id] = Text(substitute(payload.value, pairs, task_of, found))
        elif isinstance(payload, TableGrid):
            new_cells = tuple(
                Cell(
                    c.row,
                    c.col,
                    c.row_span,
                    c.col_span,
                    tuple(substitute(run, pairs, task_of, found) for run in c.content),
                )
                for c in payload.cells
            )
            resolved[det_id] = TableGrid(payload.rows, payload.cols, new_cells)
        else:
            resolved[det_id] = payload
        count(pairs, found)
    return GatherResult(
        resolved=resolved,
        failures=failures,
        tokens_resolved=tokens_resolved,
        tokens_failed=tokens_failed,
    )
