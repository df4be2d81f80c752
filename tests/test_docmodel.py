from __future__ import annotations

import copy
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uniparse import server
from uniparse.cli import main
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.dispatch import ROUTE_TABLE
from uniparse.docmodel import (
    BoundingBox,
    Detection,
    DuplicateId,
    SchemaViolation,
    SemanticCategory,
    document_bytes,
    document_from_dict,
    document_to_dict,
    load_document,
    save_document,
    validate_document,
)
from uniparse.engine import process_document
from uniparse.formats import to_structured
from uniparse.payloads import INLINE_MARKER, Cell, TableGrid

from conftest import (
    HUGE_INT,
    MALFORMED_PAYLOADS,
    bad_json,
    deeply_nested,
    det,
    one_page_doc,
    structured_dict,
)


def write_ir(tmp_path, data) -> str:
    path = tmp_path / "doc.ir.json"
    path.write_text(bad_json(data), encoding="utf-8")
    return str(path)


def minimal_ir(**overrides) -> dict:
    data = {
        "version": "1",
        "doc_id": "t1",
        "language_tag": "en",
        "outline": [],
        "pages": [
            {"page_index": 0, "width_pt": 612.0, "height_pt": 792.0, "detections": []}
        ],
    }
    data.update(overrides)
    return data


def test_load_minimal_empty_page(tmp_path):
    doc = load_document(write_ir(tmp_path, minimal_ir()))
    assert len(doc.pages) == 1
    assert sum(1 for _ in doc.iter_detections()) == 0


def test_load_duplicate_id_rejected(tmp_path):
    d = {"id": "b1", "box": [0.1, 0.1, 0.5, 0.2], "category": "paragraph", "confidence": 0.9}
    data = minimal_ir()
    data["pages"][0]["detections"] = [d, dict(d)]
    with pytest.raises(DuplicateId) as err:
        load_document(write_ir(tmp_path, data))
    assert err.value.detection_id == "b1"


def test_missing_file_raises_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_document(tmp_path / "nope.ir.json")


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.ir.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaViolation):
        load_document(path)


def test_unknown_category_rejected(tmp_path):
    data = minimal_ir()
    data["pages"][0]["detections"] = [
        {"id": "b1", "box": [0.1, 0.1, 0.5, 0.2], "category": "hologram", "confidence": 0.9}
    ]
    with pytest.raises(SchemaViolation) as err:
        load_document(write_ir(tmp_path, data))
    assert "category" in err.value.field


def _detection(**fields) -> dict:
    return {"id": "b1", "box": [0.1, 0.1, 0.5, 0.2], "category": "paragraph",
            "confidence": 0.9, **fields}


def _on_page(**fields):
    return lambda data: data["pages"][0].update(detections=[_detection(**fields)])


def _payload_on_page(payload: dict):
    category = "chemical_reaction" if payload["kind"] == "reaction" else "table"
    return _on_page(category=category, truth_payload=payload)


# Each edits minimal_ir() into a shape the loader must reject. write_ir writes
# the strings "1e400" and HUGE_INT as numbers no integer or float can hold.
MALFORMED_SHAPES = {
    "page_not_object": lambda data: data.update(pages=[1]),
    "pages_object": lambda data: data.update(pages={"a": 1}),
    "pages_int": lambda data: data.update(pages=5),
    "detections_int": lambda data: data["pages"][0].update(detections=5),
    "outline_int": lambda data: data.update(outline=5),
    "payload_int": _on_page(category="chart", truth_payload=5),
    "chart_grid_int": _on_page(category="chart",
                               truth_payload={"kind": "chart_table", "grid": 5}),
    "truth_text_int": _on_page(truth_text=5),
    "group_hint_list": _on_page(group_hint=["g"]),
    "page_index_1e400": lambda data: data["pages"][0].update(page_index="1e400"),
    "outline_level_1e400": lambda data: data.update(
        outline=[{"level": "1e400", "title": "A", "page_index": 0}]),
    "outline_page_index_1e400": lambda data: data.update(
        outline=[{"level": 1, "title": "A", "page_index": "1e400"}]),
    "box_huge_int": _on_page(box=[0.1, 0.1, 0.5, HUGE_INT]),
    **{f"payload_{name}": _payload_on_page(payload)
       for name, payload in MALFORMED_PAYLOADS.items()},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_SHAPES))
def test_malformed_shape_is_a_schema_violation(tmp_path, capsys, shape):
    data = minimal_ir()
    MALFORMED_SHAPES[shape](data)
    path = write_ir(tmp_path, data)
    with pytest.raises(SchemaViolation):
        load_document(path)
    assert main(["parse", path]) == 1
    assert "uniparse: error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(n for n in MALFORMED_PAYLOADS if n.startswith("grid_")))
def test_serve_echo_refuses_a_file_with_a_malformed_grid(tmp_path, capsys, monkeypatch, name):
    # the echo server's requests carry no payloads; a grid reaches it only
    # through the IR files it serves, which it must refuse before serving
    def no_server(*args, **kwargs):
        raise AssertionError("serve-echo started a server")

    monkeypatch.setattr(server, "make_echo_server", no_server)
    data = minimal_ir()
    _payload_on_page(MALFORMED_PAYLOADS[name])(data)
    assert main(["serve-echo", "--port", "0", "--ir", write_ir(tmp_path, data)]) == 1
    assert "uniparse: error:" in capsys.readouterr().err


def test_spans_tile_checks_bounds_before_enumerating():
    # a span past the edge is refused at once, not after a billion positions
    assert not TableGrid(10**9, 1, (Cell(0, 0, row_span=2 * 10**9),)).spans_tile()
    assert TableGrid(2, 2, (Cell(0, 0, row_span=2), Cell(0, 1), Cell(1, 1))).spans_tile()
    assert not TableGrid(2, 2, (Cell(0, 0, row_span=2), Cell(1, 0))).spans_tile()
    # the loader's bounds rule: a zero span covers nothing but is anchored inside
    assert TableGrid(2, 2, (Cell(1, 1, row_span=0),)).spans_tile()
    assert not TableGrid(2, 2, (Cell(5, 5, row_span=0),)).spans_tile()
    assert not TableGrid(2, 2, (Cell(0, 0, col_span=-1),)).spans_tile()


def test_deeply_nested_file_is_a_schema_violation(tmp_path, capsys):
    path = tmp_path / "doc.ir.json"
    path.write_text('{"version": "1", "doc_id": "t1", "pages": ' + deeply_nested() + "}",
                    encoding="utf-8")
    with pytest.raises(SchemaViolation):
        load_document(path)
    assert main(["parse", str(path)]) == 1
    assert "uniparse: error:" in capsys.readouterr().err


# --- mutated IR: a document or a SchemaViolation, never a traceback ----------

_BASE_IRS = [document_to_dict(doc) for doc in
             gen_corpus(CorpusSpec(seed=3, n_docs=4, pages_min=1, pages_max=2))[0]]
_NON_FINITE = (float("nan"), float("inf"), -float("inf"))
_WRONG_TYPES = st.sampled_from([None, True, 0, -1, 2.5, "", "x", [], [1], {}, {"a": 1}])
_KEYS = {
    "document": ("version", "doc_id", "language_tag", "outline", "pages"),
    "page": ("page_index", "width_pt", "height_pt", "detections"),
    "detection": ("id", "box", "category", "confidence", "group_hint", "truth_text",
                  "truth_payload"),
}


@st.composite
def mutated_irs(draw):
    """A generated IR dict with one to three of: a NaN, infinite or inverted
    box; an unknown category; a field of the wrong type or missing; a
    U+FFFC count in some truth_text that no longer matches its nested
    children."""
    data = copy.deepcopy(draw(st.sampled_from(_BASE_IRS)))
    pages = data["pages"]
    dets = [d for page in pages for d in page["detections"]]
    for _ in range(draw(st.integers(1, 3))):
        det = draw(st.sampled_from(dets))
        mutation = draw(st.sampled_from(["box", "category", "type", "marker"]))
        if mutation == "box" and isinstance(det.get("box"), list):
            box = det["box"]
            if draw(st.booleans()):
                box[draw(st.integers(0, 3))] = draw(st.sampled_from(_NON_FINITE))
            else:
                axis = draw(st.integers(0, 1))
                box[axis], box[axis + 2] = box[axis + 2], box[axis]
        elif mutation == "category":
            det["category"] = draw(st.sampled_from(["hologram", "", "PARAGRAPH", 3, None]))
        elif mutation == "type":
            level = draw(st.sampled_from(sorted(_KEYS)))
            target = {"document": data, "page": draw(st.sampled_from(pages)),
                      "detection": det}[level]
            key = draw(st.sampled_from(_KEYS[level]))
            if draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = draw(_WRONG_TYPES)
        elif isinstance(det.get("truth_text"), str):
            text = det["truth_text"]
            markers = [k for k, ch in enumerate(text) if ch == INLINE_MARKER]
            if markers and draw(st.booleans()):
                k = draw(st.sampled_from(markers))
                det["truth_text"] = text[:k] + text[k + 1:]
            else:
                k = draw(st.integers(0, len(text)))
                det["truth_text"] = text[:k] + INLINE_MARKER * draw(st.integers(1, 3)) + text[k:]
    return data


def test_mutation_base_documents_nest_inline_elements():
    texts = [d.get("truth_text") or "" for ir in _BASE_IRS
             for page in ir["pages"] for d in page["detections"]]
    assert any(INLINE_MARKER in text for text in texts)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_irs())
def test_mutated_ir_is_a_document_or_a_schema_violation(tmp_path, data):
    try:
        document_from_dict(data)
    except SchemaViolation:
        pass
    path = tmp_path / "doc.ir.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    try:
        load_document(path)
    except SchemaViolation:
        expected = 1
    else:
        expected = 0
    out = tmp_path / "doc.structured.json"
    assert main(["parse", str(path), "--out", str(out)]) == expected


def test_wrong_version_rejected(tmp_path):
    with pytest.raises(SchemaViolation):
        load_document(write_ir(tmp_path, minimal_ir(version="2")))


def test_invalid_box_rejected_at_load(tmp_path):
    data = minimal_ir()
    data["pages"][0]["detections"] = [
        {"id": "b1", "box": [0.5, 0.1, 0.5, 0.2], "category": "paragraph", "confidence": 0.9}
    ]
    with pytest.raises(SchemaViolation):
        load_document(write_ir(tmp_path, data))


def test_corpus_roundtrip_byte_identical(tmp_path):
    # save -> load -> save is the identity on canonical serialization
    docs, _ = gen_corpus(CorpusSpec(seed=7, n_docs=2, pages_min=1, pages_max=2,
                                    cross_page_split_prob=0.5))
    for doc in docs:
        first = tmp_path / f"{doc.doc_id}.a.json"
        save_document(doc, first)
        loaded = load_document(first)
        second = tmp_path / f"{doc.doc_id}.b.json"
        save_document(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert document_bytes(doc) == first.read_bytes()


def test_validate_clean_document():
    assert validate_document(one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2))])) is None


def _overlapping_grid() -> dict:
    # two cells at (0, 0): rendering would keep only the last
    cells = [{"row": 0, "col": 0, "content": [text]} for text in ("A", "B")]
    return {"rows": 2, "cols": 2, "cells": cells}


def _outline(*entries):
    return lambda data: data.update(
        outline=[{"level": level, "title": "A", "page_index": page} for level, page in entries])


def _on_first_page(**fields):
    return lambda data: data["pages"][0].update(fields)


# One file per rule the check raises: (edit of minimal_ir(), the error's field).
SEMANTIC_ERRORS = {
    "page_index": (_on_first_page(page_index=1), "page_index"),
    "page_size": (_on_first_page(width_pt=0.0), "page_size"),
    "page_size_nan": (_on_first_page(width_pt=float("nan")), "page_size"),
    "page_size_inf": (_on_first_page(height_pt=float("inf")), "page_size"),
    "duplicate": (_on_first_page(detections=[_detection(), _detection()]), "detections.id"),
    "degenerate_box": (_on_page(box=[0.5, 0.1, 0.5, 0.2]), "degenerate_box"),
    "box_bounds": (_on_page(box=[0.1, 0.1, 1.5, 0.2]), "box_bounds"),
    "confidence": (_on_page(confidence=1.2), "confidence"),
    "grid_spans_table": (_on_page(category="table", truth_payload={
        "kind": "table_grid", **_overlapping_grid()}), "grid_spans"),
    "grid_spans_chart": (_on_page(category="chart", truth_payload={
        "kind": "chart_table", "grid": _overlapping_grid()}), "grid_spans"),
    "reaction_arity": (_on_page(category="chemical_reaction", truth_payload={
        "kind": "reaction", "reactants": ["A"], "products": []}), "reaction_arity"),
    "outline_level_below_1": (_outline((0, 0)), "outline_level"),
    "outline_level_jump": (_outline((1, 0), (3, 0)), "outline_level"),
    "outline_page": (_outline((1, 5)), "outline_page"),
}


@pytest.mark.parametrize("name", sorted(SEMANTIC_ERRORS))
def test_validate_raises_each_error_code(tmp_path, capsys, name):
    edit, code = SEMANTIC_ERRORS[name]
    data = minimal_ir()
    edit(data)
    error = DuplicateId if code == "detections.id" else SchemaViolation
    with pytest.raises(error) as err:
        validate_document(document_from_dict(data))
    assert err.value.field == code
    path = write_ir(tmp_path, data)
    with pytest.raises(error) as err:
        load_document(path)
    assert err.value.field == code
    assert main(["parse", path]) == 1
    assert "uniparse: error:" in capsys.readouterr().err


def test_validate_detection_on_another_page():
    # only an in-memory document can disagree: the loader takes the page's index
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), page=1)])
    with pytest.raises(SchemaViolation) as err:
        validate_document(doc)
    assert err.value.field == "page_index"


def test_corpus_documents_validate_clean(small_corpus):
    docs, _ = small_corpus
    for doc in docs:
        validate_document(doc)


def test_every_category_has_one_layer_and_route():
    for category in SemanticCategory:
        assert category in ROUTE_TABLE


def test_bounding_box_geometry():
    a = BoundingBox(0.1, 0.1, 0.5, 0.3)
    b = BoundingBox(0.3, 0.2, 0.7, 0.4)
    assert a.intersection_area(b) == pytest.approx(0.2 * 0.1)
    assert a.union(b).as_list() == [0.1, 0.1, 0.7, 0.4]
    assert a.distance_to_point(0.3, 0.2) == 0.0
    assert a.distance_to_point(0.5, 0.5) == pytest.approx(0.2)
    assert not BoundingBox(0.1, 0.1, 0.1, 0.3).is_valid()
    assert not BoundingBox(-0.1, 0.1, 0.5, 0.3).is_valid()


# ---------------------------------------------------------------------------
# The structured dump against its specification, the standard library call
# ---------------------------------------------------------------------------


def test_canonical_json_matches_stdlib_on_corpus():
    docs, _ = gen_corpus(CorpusSpec(seed=5, n_docs=4, pages_min=1, pages_max=3,
                                    cross_page_split_prob=0.5))
    parsed = [process_document(doc).parsed for doc in docs]
    structured = [json.dumps(structured_dict(p), sort_keys=True, indent=2, ensure_ascii=False)
                  + "\n" for p in parsed]
    # The dump writes every value itself, so it never calls json.dumps.
    with mock.patch.object(json, "dumps", side_effect=AssertionError("called json.dumps")):
        assert [to_structured(p) for p in parsed] == structured
