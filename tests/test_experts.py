from __future__ import annotations

import json
import math
import socket
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import get_args

import pytest
import requests
from hypothesis import given, settings, strategies as st

import uniparse.engine
from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.dispatch import ROUTE_TABLE
from uniparse.docmodel import SemanticCategory as C
from uniparse.engine import process_document
from uniparse.experts import (
    DocumentStore,
    ExpertDescriptor,
    ExpertTimeout,
    FatalExpertError,
    LatencyModel,
    MODALITIES,
    MockBackend,
    ProtocolError,
    RemoteBackend,
    RetryableExpertError,
    Task,
    _substitute_grid_markers,
    batch_to_wire,
    mock_payload,
    requests_from_wire,
    substitute_markers,
)
from uniparse.formats import to_markdown, to_structured
from uniparse.payloads import (
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
)

from conftest import (
    MALFORMED_PAYLOADS,
    EchoServerThread,
    bad_json,
    deeply_nested,
    det,
    one_page_doc,
)


def store_with(detections):
    return DocumentStore([one_page_doc(detections)])


def mock_backend(descriptor, store):
    """The mock experts with only descriptor's modality in their table."""
    return MockBackend(store, {descriptor.modality: descriptor})


def request_for(detection_id, modality, placeholders=()):
    return Task(
        task_id=f"doc/{detection_id}",
        modality=modality,
        doc_id="doc",
        page_index=0,
        detection_id=detection_id,
        placeholders=placeholders,
    )


def test_ocr_mock_passes_truth_text_through():
    store = store_with([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="Introduction")])
    backend = mock_backend(ExpertDescriptor("ocr"), store)
    [response] = backend.process("ocr", [request_for("b1", "ocr")])
    assert response.payload == Text("Introduction")


def test_formula_mock_passes_payload_through():
    d = det("f1", (0.1, 0.1, 0.3, 0.15), C.FORMULA, truth_payload=Latex("E=mc^2"))
    backend = mock_backend(ExpertDescriptor("formula"), store_with([d]))
    [response] = backend.process("formula", [request_for("f1", "formula")])
    assert response.payload == Latex("E=mc^2")


def test_latency_model_arithmetic():
    # 20 base + 2/item * 8 items, no jitter -> exactly 36 ms
    model = LatencyModel(base_ms=20.0, per_item_ms=2.0, jitter_seed=0)
    ids = tuple(f"t{i}" for i in range(8))
    assert model.latency_ms(ids) == pytest.approx(20.0 + 2.0 * 8)


def test_latency_monotone_in_batch_size():
    # jitter stays strictly below one per-item cost, so the model is
    # nondecreasing in batch size even across different jitter draws
    model = LatencyModel(base_ms=10.0, per_item_ms=3.0, jitter_seed=5)
    ids = tuple(f"t{i}" for i in range(16))
    values = [model.latency_ms(ids[:n]) for n in range(1, 17)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_jitter_determinism_and_attempt_reroll():
    model = LatencyModel(base_ms=10.0, per_item_ms=2.0, jitter_seed=42)
    ids = ("a", "b")
    assert model.latency_ms(ids, attempt=0) == model.latency_ms(ids, attempt=0)
    assert model.latency_ms(ids, attempt=0) != model.latency_ms(ids, attempt=1)


def test_mock_failure_is_whole_batch_and_deterministic():
    d1 = det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")
    d2 = det("b2", (0.1, 0.3, 0.5, 0.4), truth_text="y")
    desc = ExpertDescriptor("ocr", latency=LatencyModel(jitter_seed=3), failure_rate=1.0)
    backend = mock_backend(desc, store_with([d1, d2]))
    batch = [request_for("b1", "ocr"), request_for("b2", "ocr")]
    with pytest.raises(RetryableExpertError):
        backend.process("ocr", batch, attempt=0)
    with pytest.raises(RetryableExpertError):
        backend.process("ocr", batch, attempt=1)


@pytest.mark.parametrize("record, fields, name", [
    pytest.param(ExpertDescriptor, {"max_batch": 2.5}, "max_batch", id="max_batch-float"),
    pytest.param(ExpertDescriptor, {"replicas": 1.5}, "replicas", id="replicas-float"),
    pytest.param(ExpertDescriptor, {"failure_rate": math.nan}, "failure_rate",
                 id="failure_rate-nan"),
    pytest.param(ExpertDescriptor, {"failure_rate": 1.5}, "failure_rate", id="failure_rate-1.5"),
    pytest.param(ExpertDescriptor, {"latency": 5}, "latency", id="latency-int"),
    pytest.param(LatencyModel, {"base_ms": math.nan}, "base_ms", id="base_ms-nan"),
    pytest.param(LatencyModel, {"base_ms": -1.0}, "base_ms", id="base_ms-negative"),
])
def test_a_descriptor_or_latency_model_refuses_a_bad_field(record, fields, name):
    if record is ExpertDescriptor:
        fields = {"modality": "ocr", **fields}
    with pytest.raises(ValueError, match=f"^{name} "):
        record(**fields)


def test_the_default_experts_batch_up_to_the_configs_max_batch(monkeypatch):
    # as under `uniparse parse` and PipelineConfig.resolved_experts: the
    # default table caps no modality below cfg.max_batch
    sizes = []
    process = MockBackend.process

    def recording(self, modality, batch, attempt=0):
        sizes.append(len(batch))
        return process(self, modality, batch, attempt)

    monkeypatch.setattr(MockBackend, "process", recording)
    doc = one_page_doc([det(f"p{i:02d}", (0.1, 0.02 * i + 0.01, 0.9, 0.02 * i + 0.025),
                            truth_text=f"line {i}") for i in range(40)])
    process_document(doc, EngineConfig(max_batch=32))
    assert sizes == [32, 8]


def test_mock_rejects_oversize_and_misrouted_batches():
    d = det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")
    backend = mock_backend(ExpertDescriptor("ocr", max_batch=1), store_with([d]))
    with pytest.raises(FatalExpertError):
        backend.process("ocr", [request_for("b1", "ocr"), request_for("b1", "ocr")])
    with pytest.raises(FatalExpertError):
        backend.process("ocr", [request_for("b1", "formula")])


def test_reaction_mock_parses_triplet_text():
    d = det("r1", (0.1, 0.1, 0.5, 0.2), C.CHEMICAL_REACTION, truth_text="CCO.CC>heat>OCC")
    payload = mock_payload("reaction", d)
    assert payload == Reaction(reactants=("CCO", "CC"), conditions=("heat",), products=("OCC",))


def test_order_preservation_conformance(small_corpus):
    """Responses come back in request order for mocks and the remote adapter."""
    docs, _ = small_corpus
    store = DocumentStore(docs)
    doc = docs[0]
    by_modality: dict[str, list] = {m: [] for m in MODALITIES}
    for d in doc.iter_detections():
        modality = ROUTE_TABLE[d.category]
        if modality:
            by_modality[modality].append(
                Task(f"{doc.doc_id}/{d.id}", modality, doc.doc_id, d.page_index, d.id)
            )
    mock = MockBackend(store)
    with EchoServerThread(docs) as srv, closing(RemoteBackend(srv.endpoint)) as remote:
        for modality, batch in sorted(by_modality.items()):
            if not batch:
                continue
            batch = batch[:16]
            got_mock = mock.process(modality, batch)
            assert [r.task_id for r in got_mock] == [r.task_id for r in batch]
            got_remote = remote.process(modality, batch)
            assert [r.task_id for r in got_remote] == [r.task_id for r in batch]


def test_echo_server_payloads_match_mock(small_corpus):
    """The echo server answers with the placeholders each request carries,
    as the in-process mock does, whatever plan made them."""
    docs, _ = small_corpus
    store = DocumentStore(docs)
    plain, inline = [], []
    for doc in docs:
        for d in doc.iter_detections():
            if ROUTE_TABLE[d.category] != "ocr":
                continue
            markers = (d.truth_text or "").count(INLINE_MARKER)
            # Hand-written tokens, unlike any a default-config plan emits.
            tokens = tuple(f"<<hand:{d.id}:{k}>>" for k in range(markers))
            (inline if markers else plain).append(
                Task(f"{doc.doc_id}/{d.id}", "ocr", doc.doc_id, d.page_index, d.id, tokens))
    batch = plain[:8] + inline[:8]
    assert plain and inline
    with EchoServerThread(docs) as srv, closing(RemoteBackend(srv.endpoint)) as backend:
        remote = backend.process("ocr", batch)
    mock = MockBackend(store).process("ocr", batch)
    assert [r.payload for r in remote] == [r.payload for r in mock]
    assert sum("<<hand:" in r.payload.value for r in mock) == len(inline[:8])


@pytest.mark.parametrize("cfg", [EngineConfig(ioa_threshold=1.01), EngineConfig()],
                         ids=["ioa_1.01", "default"])
def test_remote_parity_under_any_client_config(cfg):
    """The client's plan alone decides the placeholders: remote dumps equal
    mock dumps under a config the server was never told about."""
    docs, _ = gen_corpus(CorpusSpec(seed=3, n_docs=6))
    store = DocumentStore(docs)
    with EchoServerThread(docs) as srv, closing(RemoteBackend(srv.endpoint)) as backend:
        for doc in docs:
            remote = to_structured(process_document(doc, cfg, backend).parsed)
            local = to_structured(process_document(doc, cfg, MockBackend(store)).parsed)
            assert remote == local
            assert "[[UPH:" not in remote


def test_echo_server_start_up_lays_out_nothing(monkeypatch, small_corpus):
    docs, _ = small_corpus
    calls = []
    real_analyze_pages = uniparse.engine.analyze_pages

    def counting(doc, cfg=None):
        calls.append(doc.doc_id)
        return real_analyze_pages(doc, cfg)

    # analyze_and_plan looks analyze_pages up in uniparse.engine
    monkeypatch.setattr(uniparse.engine, "analyze_pages", counting)
    with EchoServerThread(docs):
        pass
    assert calls == []


class _StubHandler(BaseHTTPRequestHandler):
    status = 503
    body = b'{"error": "down"}'

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)


def _stub_server(status, body=b"{}"):
    handler = type("H", (_StubHandler,), {"status": status, "body": body})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def test_remote_503_is_retryable():
    server = _stub_server(503)
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")
        with closing(backend), pytest.raises(RetryableExpertError):
            backend.process("ocr", [request_for("b1", "ocr")])
    finally:
        server.shutdown()
        server.server_close()


def test_remote_400_is_fatal():
    server = _stub_server(400)
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")
        with closing(backend), pytest.raises(FatalExpertError):
            backend.process("ocr", [request_for("b1", "ocr")])
    finally:
        server.shutdown()
        server.server_close()


def test_remote_truncated_body_is_protocol_error():
    server = _stub_server(200, body=b'{"items": [{"task_id"')
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")
        with closing(backend), pytest.raises(ProtocolError):
            backend.process("ocr", [request_for("b1", "ocr")])
    finally:
        server.shutdown()
        server.server_close()


# 200 bodies no decoder can read: wrong shapes, payloads with numbers no
# integer can hold or lists of non-strings, and nesting too deep to parse.
MALFORMED_RESPONSES = {
    "body_not_object": '[{"task_id": "doc/b1"}]',
    "payload_not_object": '{"items": [{"task_id": "doc/b1", "payload": 5}]}',
    "grid_not_object":
        '{"items": [{"task_id": "doc/b1", "payload": {"kind": "chart_table", "grid": 5}}]}',
    **{name: bad_json({"items": [{"task_id": "doc/b1", "payload": payload}]})
       for name, payload in MALFORMED_PAYLOADS.items()},
    "nested_100000": '{"items": [{"task_id": "doc/b1", "payload": ' + deeply_nested() + "}]}",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RESPONSES))
def test_remote_malformed_body_is_protocol_error(name):
    server = _stub_server(200, body=MALFORMED_RESPONSES[name].encode("utf-8"))
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")])
    try:
        with closing(RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")) as backend:
            with pytest.raises(ProtocolError):
                backend.process("ocr", [request_for("b1", "ocr")])
            parsed = process_document(doc, backend=backend).parsed
    finally:
        server.shutdown()
        server.server_close()
    # the batch's one task fails; nothing reaches a formatter
    assert parsed.failed_tasks == ("doc/b1",)
    assert isinstance(to_markdown(parsed), str)


def test_remote_unexpected_status_is_protocol_error():
    server = _stub_server(418)
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_address[1]}")
        with closing(backend), pytest.raises(ProtocolError):
            backend.process("ocr", [request_for("b1", "ocr")])
    finally:
        server.shutdown()
        server.server_close()


def test_timeout_is_retryable_subclass():
    assert issubclass(ExpertTimeout, RetryableExpertError)


def test_wire_request_schema_field_names():
    wire = batch_to_wire("ocsr", [request_for("m1", "ocsr")])
    assert set(wire) == {"modality", "items"}
    assert set(wire["items"][0]) == {"task_id", "detection_id", "doc_id", "page_index"}
    assert json.dumps(wire) == (
        '{"modality": "ocsr", "items": [{"task_id": "doc/m1", "detection_id": "m1", '
        '"doc_id": "doc", "page_index": 0}]}'
    )
    wire = batch_to_wire("ocr", [request_for("p1", "ocr", ("[[UPH:formula:f1]]",))])
    assert set(wire["items"][0]) == {
        "task_id", "detection_id", "doc_id", "page_index", "placeholders"
    }
    assert wire["items"][0]["placeholders"] == ["[[UPH:formula:f1]]"]


def test_wire_request_codec_round_trips():
    batch = [
        request_for("b1", "ocr"),
        request_for("p1", "ocr", ("[[UPH:formula:f1]]", "[[UPH:molecule:m2]]")),
        request_for("b2", "ocr", ("",)),
    ]
    assert requests_from_wire("ocr", batch_to_wire("ocr", batch)) == batch
    assert requests_from_wire("ocr", json.loads(json.dumps(batch_to_wire("ocr", batch)))) == batch


_ITEM = {"task_id": "doc/b1", "detection_id": "b1", "doc_id": "doc", "page_index": 0}

MALFORMED_REQUESTS = {
    "no_items": {"modality": "ocr"},
    "items_not_list": {"items": {"a": 1}},
    "body_not_object": [_ITEM],
    "item_not_object": {"items": [5]},
    "item_missing_key": {"items": [{"task_id": "doc/b1", "doc_id": "doc", "page_index": 0}]},
    "placeholders_string": {"items": [{**_ITEM, "placeholders": "[[UPH:formula:f1]]"}]},
    "placeholders_object": {"items": [{**_ITEM, "placeholders": {"a": "b"}}]},
    "placeholders_int_entry": {"items": [{**_ITEM, "placeholders": ["x", 1]}]},
    "placeholders_null_entry": {"items": [{**_ITEM, "placeholders": [None]}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REQUESTS))
def test_malformed_request_is_rejected(name):
    body = MALFORMED_REQUESTS[name]
    with pytest.raises((ValueError, KeyError, TypeError)):
        requests_from_wire("ocr", body)
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")])
    with EchoServerThread([doc]) as srv, requests.Session() as session:
        response = session.post(f"{srv.endpoint}/v1/experts/ocr:batch", json=body)
        assert response.status_code == 400, response.text


@pytest.mark.parametrize("body", [
    bad_json({"items": [{**_ITEM, "page_index": "1e400"}]}),
    '{"items": ' + deeply_nested() + "}",
], ids=["page_index_1e400", "nested_100000"])
def test_echo_server_answers_undecodable_request_with_400(body):
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")])
    with EchoServerThread([doc]) as srv, requests.Session() as session:
        response = session.post(f"{srv.endpoint}/v1/experts/ocr:batch", data=body.encode(),
                                headers={"Content-Type": "application/json"})
        assert response.status_code == 400, response.text


@pytest.mark.parametrize("length", ["abc", "-1", "1_0"])
def test_echo_server_answers_bad_content_length_with_400(length):
    # A raw socket: requests writes Content-Length itself.
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")])
    with EchoServerThread([doc]) as srv:
        with closing(socket.create_connection(srv.server.server_address[:2], timeout=5)) as sock:
            sock.sendall(f"POST /v1/experts/ocr:batch HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {length}\r\n\r\n{{}}".encode())
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    assert status_line.split()[1] == b"400", reply
    assert b"malformed request" in rest


def test_echo_server_drops_a_request_shorter_than_its_content_length():
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_text="x")])
    handlers = []
    with EchoServerThread([doc]) as srv:
        bound = srv.server.RequestHandlerClass
        assert bound.timeout is not None and bound.timeout > 0

        class QuickHandler(bound):  # the same rule, sooner
            timeout = 0.5

            def setup(self):
                handlers.append(threading.current_thread())
                super().setup()

        srv.server.RequestHandlerClass = QuickHandler
        with closing(socket.create_connection(srv.server.server_address[:2], timeout=5)) as sock:
            sock.sendall(b"POST /v1/experts/ocr:batch HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 100\r\n\r\n{}")
            # b"" once the server closes the connection; TimeoutError after 5 s
            reply = sock.recv(4096)
        for thread in handlers:
            thread.join(timeout=5)
    assert reply == b""
    assert len(handlers) == 1 and not handlers[0].is_alive()


def test_payload_kind_strings_are_pinned():
    pinned = {Text: "text", Latex: "latex", TableGrid: "table_grid", ESmiles: "e_smiles",
              Reaction: "reaction", ChartTable: "chart_table", Caption: "caption"}
    assert set(pinned) == set(get_args(ContentPayload))
    assert {cls: cls.kind for cls in pinned} == pinned


# --- inline marker substitution, against the character-loop reference -------


def substitute_markers_by_char(text, placeholders):
    out = []
    remaining = list(placeholders)
    for ch in text:
        if ch == INLINE_MARKER:
            out.append(remaining.pop(0) if remaining else "")
        else:
            out.append(ch)
    result = "".join(out)
    for token in remaining:
        result = f"{result} {token}" if result else token
    return result


def substitute_grid_markers_by_char(grid, placeholders):
    remaining = list(placeholders)
    new_cells = []
    for cell in sorted(grid.cells, key=lambda c: (c.row, c.col)):
        content = []
        for run in cell.content:
            if INLINE_MARKER not in run:
                content.append(run)
                continue
            parts = []
            for ch in run:
                if ch == INLINE_MARKER:
                    parts.append(remaining.pop(0) if remaining else "")
                else:
                    parts.append(ch)
            content.append("".join(parts))
        new_cells.append(Cell(cell.row, cell.col, cell.row_span, cell.col_span, tuple(content)))
    new_cells.sort(key=lambda c: (c.row, c.col))
    if remaining and new_cells:
        # leftover tokens join the last cell's last run, as for text
        last = new_cells[-1]
        runs = list(last.content) or [""]
        for token in remaining:
            runs[-1] = f"{runs[-1]} {token}" if runs[-1] else token
        new_cells[-1] = Cell(last.row, last.col, last.row_span, last.col_span, tuple(runs))
    return TableGrid(rows=grid.rows, cols=grid.cols, cells=tuple(new_cells))


marked_text = st.text(alphabet=st.sampled_from(["a", " ", "é", "x", INLINE_MARKER]), max_size=12)
tokens = st.lists(st.sampled_from(["[[F:0]]", "[[F:1]]", "[[T:2]]", ""]), max_size=5)


@st.composite
def marked_grids(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    cells = [Cell(r, c, content=tuple(draw(st.lists(marked_text, max_size=3))))
             for r in range(rows) for c in range(cols)]
    return TableGrid(rows=rows, cols=cols, cells=tuple(draw(st.permutations(cells))))


@settings(max_examples=300, deadline=None)
@given(marked_text, tokens)
def test_substitute_markers_matches_character_loop(text, placeholders):
    placeholders = tuple(placeholders)
    assert substitute_markers(text, placeholders) == substitute_markers_by_char(text, placeholders)


@settings(max_examples=300, deadline=None)
@given(marked_grids(), tokens)
def test_grid_substitution_matches_character_loop(grid, placeholders):
    placeholders = tuple(placeholders)
    assert (_substitute_grid_markers(grid, placeholders)
            == substitute_grid_markers_by_char(grid, placeholders))


@settings(max_examples=200, deadline=None)
@given(marked_grids())
def test_an_unmarked_grid_in_order_is_answered_as_it_is(grid):
    unmarked = TableGrid(grid.rows, grid.cols, tuple(
        Cell(c.row, c.col, content=tuple(run.replace(INLINE_MARKER, "") for run in c.content))
        for c in grid.cells))
    ordered = TableGrid(grid.rows, grid.cols,
                        tuple(sorted(unmarked.cells, key=lambda c: (c.row, c.col))))
    assert _substitute_grid_markers(ordered, ()) is ordered
    answer = _substitute_grid_markers(unmarked, ())
    assert answer == ordered
    assert (answer is unmarked) == (unmarked == ordered)
    if any(INLINE_MARKER in run for c in grid.cells for run in c.content):
        assert _substitute_grid_markers(grid, ()) is not grid
