"""Loopback expert service for testing the wire adapter.

Serves POST /v1/experts/{modality}:batch over the documented wire schema,
answering from the same deterministic mocks the in-process backend uses. The
server loads full IR documents so it can resolve ground-truth channels and
recompute placeholder plans by itself.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import EngineConfig
from .docmodel import DocumentIR
from .engine import analyze_and_plan
from .experts import (
    DocumentStore,
    ExpertRequest,
    ExpertResponse,
    FatalExpertError,
    MODALITIES,
    mock_payload,
    responses_to_wire,
)

_PATH_RE = re.compile(r"^/v1/experts/([a-z_]+):batch$")


class EchoExpertService:
    """Request resolver shared by every handler thread."""

    def __init__(self, docs: list[DocumentIR], cfg: EngineConfig | None = None):
        self.cfg = cfg or EngineConfig()
        self.store = DocumentStore(docs)
        self._placeholders: dict[tuple[str, str], tuple[str, ...]] = {}
        for doc in docs:
            _analyses, plan = analyze_and_plan(doc, self.cfg)
            for task in plan.tasks:
                self._placeholders[(doc.doc_id, task.detection_id)] = task.placeholders

    def handle(self, modality: str, body: dict) -> dict:
        if modality not in MODALITIES:
            raise FatalExpertError(f"unknown modality {modality!r}")
        items = body.get("items")
        if not isinstance(items, list):
            raise FatalExpertError("missing items[]")
        responses = []
        for item in items:
            request = ExpertRequest(
                task_id=str(item["task_id"]),
                modality=modality,
                doc_id=str(item["doc_id"]),
                page_index=int(item["page_index"]),
                detection_id=str(item["detection_id"]),
                placeholders=self._placeholders.get(
                    (str(item["doc_id"]), str(item["detection_id"])), ()
                ),
            )
            det = self.store.detection(request.doc_id, request.detection_id)
            payload = mock_payload(modality, det, request.placeholders)
            responses.append(ExpertResponse(task_id=request.task_id, payload=payload))
        return responses_to_wire(responses)


class _Handler(BaseHTTPRequestHandler):
    service: EchoExpertService

    def log_message(self, fmt, *args):  # silence request logging
        pass

    def do_POST(self):
        match = _PATH_RE.match(self.path)
        if match is None:
            self._reply(404, {"error": "unknown endpoint"})
            return
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
            result = self.service.handle(match.group(1), body)
        except FatalExpertError as exc:
            self._reply(400, {"error": str(exc)})
            return
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"malformed request: {exc}"})
            return
        self._reply(200, result)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def make_echo_server(
    docs: list[DocumentIR], host: str = "127.0.0.1", port: int = 0,
    cfg: EngineConfig | None = None,
) -> ThreadingHTTPServer:
    service = EchoExpertService(docs, cfg)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


class EchoServerThread:
    """Context manager running the echo server on a daemon thread."""

    def __init__(self, docs: list[DocumentIR], cfg: EngineConfig | None = None):
        self.server = make_echo_server(docs, cfg=cfg)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "EchoServerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
