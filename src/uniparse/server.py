"""Loopback expert service for testing the wire adapter.

Serves POST /v1/experts/{modality}:batch over the documented wire schema,
answering from the same deterministic mocks the in-process backend uses. The
server loads full IR documents so it can resolve ground-truth channels. It
plans nothing: each request item carries its placeholder tokens, so the
server answers exactly what it is sent, whatever the client's config.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .docmodel import DocumentIR
from .experts import (
    DocumentStore,
    ExpertResponse,
    FatalExpertError,
    MODALITIES,
    mock_payload,
    requests_from_wire,
    responses_to_wire,
)
from .payloads import DECODE_ERRORS

_PATH_RE = re.compile(r"^/v1/experts/([a-z_]+):batch$")


class EchoExpertService:
    """Request resolver shared by every handler thread."""

    def __init__(self, docs: list[DocumentIR]):
        self.store = DocumentStore(docs)

    def handle(self, modality: str, body: dict) -> dict:
        if modality not in MODALITIES:
            raise FatalExpertError(f"unknown modality {modality!r}")
        responses = []
        for request in requests_from_wire(modality, body):
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
        except DECODE_ERRORS as exc:
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
    docs: list[DocumentIR], host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    service = EchoExpertService(docs)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


class EchoServerThread:
    """Context manager running the echo server on a daemon thread."""

    def __init__(self, docs: list[DocumentIR]):
        self.server = make_echo_server(docs)
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
