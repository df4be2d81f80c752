"""Modality experts: the task they are sent, the response they give, and
the two backends that are the experts.

A backend answers process(modality, batch, attempt) with one ExpertResponse
per Task, in request order, or raises an ExpertError for the whole batch.
MockBackend is the in-process experts: deterministic mocks that answer from
the documents' ground-truth channels. RemoteBackend is a remote service
speaking the batch wire schema, reached over one HTTP session for every
modality.

Wire schema (bit-exact): POST /v1/experts/{modality}:batch with body
{"modality": ..., "items": [{"task_id", "detection_id", "doc_id",
"page_index", "placeholders"?}]}; response {"items": [{"task_id",
"payload": {"kind", ...}}]}. HTTP 200 on success, 503 retryable, 400 fatal.
An item carries "placeholders", a list of strings, only when its task has
inline children: their placeholder tokens in reading order, which the expert
writes in place of the detection's inline markers. A request thus carries
everything the expert needs; the expert keeps no plan of its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import requests

from .docmodel import Detection, DocumentIR
from .payloads import (
    DECODE_ERRORS,
    INLINE_MARKER,
    Caption,
    Cell,
    ChartTable,
    ContentPayload,
    ESmiles,
    Latex,
    Reaction,
    TableGrid,
    Text,
    payload_from_dict,
    payload_to_dict,
    str_list,
)

MODALITIES = ("ocr", "formula", "table_structure", "ocsr", "reaction", "chart", "caption")


class ExpertError(Exception):
    pass


class RetryableExpertError(ExpertError):
    """The whole batch failed but may succeed on retry."""


class ExpertTimeout(RetryableExpertError):
    pass


class FatalExpertError(ExpertError):
    """Malformed request; retrying cannot help."""


class ProtocolError(ExpertError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"unexpected response (status {status}): {body[:200]}")


@dataclass(frozen=True)
class LatencyModel:
    base_ms: float = 10.0
    per_item_ms: float = 2.0
    jitter_seed: int = 0

    def latency_ms(self, task_ids: tuple[str, ...], attempt: int = 0) -> float:
        """base + per-item cost, plus seeded jitter in [0, per_item_ms).

        jitter_seed 0 disables jitter entirely. Jitter depends only on the
        seed, the batch composition and the attempt, never on wall time.
        """
        latency = self.base_ms + self.per_item_ms * len(task_ids)
        if self.jitter_seed:
            latency += _unit_roll(self.jitter_seed, "jitter", task_ids, attempt) * self.per_item_ms
        return latency


@dataclass(frozen=True)
class ExpertDescriptor:
    modality: str
    max_batch: int = 16
    latency: LatencyModel = field(default_factory=LatencyModel)
    replicas: int = 2
    failure_rate: float = 0.0


@dataclass(frozen=True)
class Task:
    """One detection's work for one expert: what the dispatch plan holds and
    what the backend is sent."""

    task_id: str
    modality: str
    doc_id: str
    page_index: int
    detection_id: str
    # Placeholder tokens for this detection's inline children, in reading
    # order; consumed by text- and table-producing experts.
    placeholders: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExpertResponse:
    task_id: str
    payload: ContentPayload | None = None


def _unit_roll(seed: int, salt: str, task_ids: tuple[str, ...], attempt: int) -> float:
    """Deterministic pseudo-random value in [0, 1), stable across machines."""
    payload = json.dumps([seed, salt, list(task_ids), attempt]).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


# Default latency models per modality, in virtual milliseconds. The two OCR
# profiles mirror a fast default engine and a slower high-quality one.
DEFAULT_LATENCIES: dict[str, LatencyModel] = {
    "ocr": LatencyModel(base_ms=12.0, per_item_ms=3.0),
    "formula": LatencyModel(base_ms=18.0, per_item_ms=6.0),
    "table_structure": LatencyModel(base_ms=25.0, per_item_ms=10.0),
    "ocsr": LatencyModel(base_ms=22.0, per_item_ms=8.0),
    "reaction": LatencyModel(base_ms=30.0, per_item_ms=12.0),
    "chart": LatencyModel(base_ms=28.0, per_item_ms=10.0),
    "caption": LatencyModel(base_ms=20.0, per_item_ms=6.0),
}

OCR_PROFILES: dict[str, LatencyModel] = {
    "fast": DEFAULT_LATENCIES["ocr"],
    "hq": LatencyModel(base_ms=45.0, per_item_ms=14.0),
}


def default_descriptors(
    max_batch: int = 16, replicas: int = 2, seed: int = 0, failure_rate: float = 0.0
) -> dict[str, ExpertDescriptor]:
    out = {}
    for modality in MODALITIES:
        lat = DEFAULT_LATENCIES[modality]
        out[modality] = ExpertDescriptor(
            modality=modality,
            max_batch=max_batch,
            latency=LatencyModel(lat.base_ms, lat.per_item_ms, jitter_seed=seed),
            replicas=replicas,
            failure_rate=failure_rate,
        )
    return out


class DocumentStore:
    """Registry giving experts access to ground-truth channels by reference."""

    def __init__(self, docs: list[DocumentIR] | None = None):
        self._detections: dict[tuple[str, str], Detection] = {}
        for doc in docs or ():
            self.add(doc)

    def add(self, doc: DocumentIR) -> None:
        for det in doc.iter_detections():
            self._detections[(doc.doc_id, det.id)] = det

    def detection(self, doc_id: str, detection_id: str) -> Detection:
        try:
            return self._detections[(doc_id, detection_id)]
        except KeyError:
            raise FatalExpertError(f"unknown detection {doc_id}/{detection_id}") from None


class MockBackend:
    """The in-process experts: a deterministic mock per modality.

    Each task is answered with its detection's ground-truth payload (or a
    fixed transform of its ground-truth text), under the descriptor table in
    force: `descriptors`, which a runtime swap may replace. Failures, when
    enabled, hit whole batches and re-roll per attempt. Latency is the
    descriptors' model, which the simulator charges.
    """

    def __init__(self, store: DocumentStore, descriptors: dict[str, ExpertDescriptor] | None = None):
        self.store = store
        self.descriptors = descriptors or default_descriptors()

    def process(self, modality: str, batch: list[Task], attempt: int = 0) -> list[ExpertResponse]:
        descriptor = self.descriptors[modality]
        if len(batch) > descriptor.max_batch:
            raise FatalExpertError(
                f"batch of {len(batch)} exceeds max_batch {descriptor.max_batch}"
            )
        for task in batch:
            if task.modality != descriptor.modality:
                raise FatalExpertError(
                    f"request {task.task_id} routed to wrong expert "
                    f"({task.modality} != {descriptor.modality})"
                )
        if descriptor.failure_rate > 0.0:
            roll = _unit_roll(
                descriptor.latency.jitter_seed, "fail", tuple(t.task_id for t in batch), attempt
            )
            if roll < descriptor.failure_rate:
                raise RetryableExpertError("injected batch failure")
        return [
            ExpertResponse(
                task_id=task.task_id,
                payload=mock_payload(
                    descriptor.modality,
                    self.store.detection(task.doc_id, task.detection_id),
                    task.placeholders,
                ),
            )
            for task in batch
        ]


def mock_payload(
    modality: str, det: Detection, placeholders: tuple[str, ...] = ()
) -> ContentPayload:
    """What the mock expert answers for one detection."""
    text = det.truth_text or ""
    payload = det.truth_payload
    if modality == "ocr":
        if isinstance(payload, Text):
            text = payload.value
        return Text(substitute_markers(text, placeholders))
    if modality == "formula":
        if isinstance(payload, Latex):
            return payload
        return Latex(text)
    if modality == "ocsr":
        if isinstance(payload, ESmiles):
            return payload
        return ESmiles(text)
    if modality == "reaction":
        if isinstance(payload, Reaction):
            return payload
        # "A.B>cond>C" reads as a reactant>condition>product triplet.
        parts = text.split(">")
        if len(parts) == 3:
            return Reaction(
                reactants=tuple(p for p in parts[0].split(".") if p),
                conditions=tuple(p for p in parts[1].split(".") if p),
                products=tuple(p for p in parts[2].split(".") if p),
            )
        return Reaction(reactants=(text,), conditions=(), products=(text,))
    if modality == "chart":
        if isinstance(payload, ChartTable):
            return payload
        if isinstance(payload, TableGrid):
            return ChartTable(grid=payload)
        return ChartTable(grid=TableGrid(rows=1, cols=1, cells=(Cell(0, 0, content=(text,)),)))
    if modality == "caption":
        if isinstance(payload, Caption):
            return payload
        return Caption(text)
    if modality == "table_structure":
        if isinstance(payload, TableGrid):
            return _substitute_grid_markers(payload, placeholders)
        return TableGrid(rows=1, cols=1, cells=(Cell(0, 0, content=(text,)),))
    raise FatalExpertError(f"unknown modality {modality!r}")


def substitute_markers(text: str, placeholders: tuple[str, ...]) -> str:
    """Replace inline markers with placeholder tokens, in order.

    Extra markers (no token left) are dropped; extra tokens (no marker left)
    are appended, space-separated, so no inline element is ever lost.
    """
    remaining = list(placeholders)
    result = _take_tokens(text, remaining)
    for token in remaining:
        result = f"{result} {token}" if result else token
    return result


def _substitute_grid_markers(grid: TableGrid, placeholders: tuple[str, ...]) -> TableGrid:
    """Markers inside cells map to tokens in row-major cell scan order."""
    remaining = list(placeholders)
    new_cells = []
    for cell in sorted(grid.cells, key=lambda c: (c.row, c.col)):
        content = tuple(_take_tokens(run, remaining) for run in cell.content)
        new_cells.append(Cell(cell.row, cell.col, cell.row_span, cell.col_span, content))
    new_cells.sort(key=lambda c: (c.row, c.col))
    return TableGrid(rows=grid.rows, cols=grid.cols, cells=tuple(new_cells))


def _take_tokens(run: str, remaining: list[str]) -> str:
    """Each inline marker in run becomes the next token taken from the front
    of remaining, or nothing once remaining is empty."""
    if INLINE_MARKER not in run:
        return run
    parts = run.split(INLINE_MARKER)
    out = [parts[0]]
    for part in parts[1:]:
        out.append(remaining.pop(0) if remaining else "")
        out.append(part)
    return "".join(out)


# ---------------------------------------------------------------------------
# Wire adapter
# ---------------------------------------------------------------------------


def batch_to_wire(modality: str, batch: list[Task]) -> dict:
    items = []
    for r in batch:
        item = {
            "task_id": r.task_id,
            "detection_id": r.detection_id,
            "doc_id": r.doc_id,
            "page_index": r.page_index,
        }
        if r.placeholders:
            item["placeholders"] = list(r.placeholders)
        items.append(item)
    return {"modality": modality, "items": items}


def requests_from_wire(modality: str, body: dict) -> list[Task]:
    """The tasks of a batch body; the inverse of batch_to_wire.

    Raises one of DECODE_ERRORS on a malformed body.
    """
    out = []
    for item in _wire_items(body, "request"):
        if not isinstance(item, dict):
            raise TypeError(f"item must be an object, got {type(item).__name__}")
        out.append(
            Task(
                task_id=str(item["task_id"]),
                modality=modality,
                doc_id=str(item["doc_id"]),
                page_index=int(item["page_index"]),
                detection_id=str(item["detection_id"]),
                placeholders=str_list(item, "placeholders"),
            )
        )
    return out


def responses_from_wire(data: dict) -> list[ExpertResponse]:
    """Raises one of DECODE_ERRORS on a malformed body."""
    out = []
    for item in _wire_items(data, "response"):
        out.append(
            ExpertResponse(
                task_id=str(item["task_id"]),
                payload=payload_from_dict(item["payload"]),
            )
        )
    return out


def _wire_items(body, what: str) -> list:
    items = body.get("items") if isinstance(body, dict) else None
    if not isinstance(items, list):
        raise ValueError(f"{what} body missing items[]")
    return items


def responses_to_wire(responses: list[ExpertResponse]) -> dict:
    return {
        "items": [
            {"task_id": r.task_id, "payload": payload_to_dict(r.payload)} for r in responses
        ]
    }


class RemoteBackend:
    """The remote experts: one service speaking the batch wire schema, reached
    over one HTTP session (and so one connection pool) for every modality."""

    def __init__(self, endpoint: str, timeout_s: float = 10.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self._session = requests.Session()

    def process(self, modality: str, batch: list[Task], attempt: int = 0) -> list[ExpertResponse]:
        url = f"{self.endpoint}/v1/experts/{modality}:batch"
        try:
            response = self._session.post(
                url, json=batch_to_wire(modality, batch), timeout=self.timeout_s
            )
        except requests.Timeout as exc:
            raise ExpertTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise RetryableExpertError(str(exc)) from exc
        if response.status_code == 503:
            raise RetryableExpertError("service unavailable")
        if response.status_code == 400:
            raise FatalExpertError(response.text)
        if response.status_code != 200:
            raise ProtocolError(response.status_code, response.text)
        try:
            return responses_from_wire(response.json())
        except DECODE_ERRORS as exc:
            raise ProtocolError(response.status_code, response.text) from exc

    def close(self) -> None:
        self._session.close()
