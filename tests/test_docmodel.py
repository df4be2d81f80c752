from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from enum import Enum, IntEnum
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from uniparse.cli import main
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.dispatch import ROUTE_TABLE
from uniparse.docmodel import (
    BoundingBox,
    Detection,
    DocumentIR,
    DuplicateId,
    OutlineEntry,
    PageIR,
    SchemaViolation,
    SemanticCategory,
    Severity,
    canonical_json,
    category_layer,
    document_bytes,
    document_to_dict,
    load_document,
    save_document,
    validate_document,
)
from uniparse.engine import process_document
from uniparse.formats import _doc_to_dict, to_structured

from conftest import HUGE_INT, MALFORMED_PAYLOADS, bad_json, deeply_nested, det, one_page_doc


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
    assert doc.page_count == 1
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


def test_deeply_nested_file_is_a_schema_violation(tmp_path, capsys):
    path = tmp_path / "doc.ir.json"
    path.write_text('{"version": "1", "doc_id": "t1", "pages": ' + deeply_nested() + "}",
                    encoding="utf-8")
    with pytest.raises(SchemaViolation):
        load_document(path)
    assert main(["parse", str(path)]) == 1
    assert "uniparse: error:" in capsys.readouterr().err


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
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2))])
    assert validate_document(doc).ok


def test_validate_degenerate_box_is_error():
    doc = one_page_doc([det("b1", (0.5, 0.1, 0.5, 0.2))])
    report = validate_document(doc)
    assert [f.code for f in report.errors] == ["degenerate_box"]


def test_validate_out_of_bounds_box_is_error():
    doc = one_page_doc([det("b1", (0.1, 0.1, 1.5, 0.2))])
    assert [f.code for f in validate_document(doc).errors] == ["box_bounds"]


def test_validate_confidence_out_of_range():
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), confidence=1.2)])
    assert [f.code for f in validate_document(doc).errors] == ["confidence"]


def test_validate_orphan_group_hint_warns():
    doc = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), group_hint="g9")])
    report = validate_document(doc)
    assert not report.errors
    assert [f.code for f in report.warnings] == ["orphan_group_hint"]


def test_validate_outline_level_jump():
    doc = DocumentIR(
        doc_id="t",
        pages=(PageIR(0, 612.0, 792.0, ()),),
        outline=(OutlineEntry(1, "Intro", 0), OutlineEntry(3, "Deep", 0)),
    )
    assert any(f.code == "outline_level" for f in validate_document(doc).errors)


def test_corpus_documents_validate_clean(small_corpus):
    docs, _ = small_corpus
    for doc in docs:
        report = validate_document(doc)
        assert not report.errors, report.errors


def test_every_category_has_one_layer_and_route():
    for category in SemanticCategory:
        assert category_layer(category) is not None
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
# canonical_json against its specification, the standard library call
# ---------------------------------------------------------------------------


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@contextmanager
def stdlib_unavailable():
    """Make any fallback to the standard library encoder fail loudly, so that
    a passing comparison shows the fast encoder wrote the bytes itself."""
    with mock.patch.object(json, "dumps", side_effect=AssertionError("fell back to json.dumps")):
        yield


def nest(leaf, kinds):
    for kind in kinds:
        leaf = {"k": leaf} if kind == "dict" else (leaf,) if kind == "tuple" else [leaf]
    return leaf


# Special characters: quote, backslash, C0 controls, DEL, the JS line
# separators, and non-BMP code points (written raw with ensure_ascii=False).
ODD_CHARS = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f  \xe9中\U0001f600\U00010000\U0010fffd'
EDGE_TREE = {
    "floats": [1e-05, 1e16, 1e22, 5e-324, 1.7976931348623157e308, -0.0, 0.0, 0.1, -2.5e-10,
               float("nan"), float("inf"), float("-inf")],
    "ints": [0, -1, 2**63 - 1, 2**63, 2**64, -(2**64) - 1, 10**40],
    "atoms": [True, False, None],
    "text": ["", *ODD_CHARS, ODD_CHARS],
    "empty": [[], {}, (), [[]], {"": {}}, ([],)],
    "tuple": (1, (2.0, "x"), []),
    "deep": nest(1e-05, ["list", "dict", "tuple"] * 17),
    ODD_CHARS: ODD_CHARS,
    "\U0001f600": 1,
    "\x00": 2,
    "B": 3,
    "": 4,
}

_text = st.text(st.characters() | st.sampled_from(ODD_CHARS), max_size=8)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([1e-05, 1e16, 5e-324, -0.0, float("nan"), float("inf"), float("-inf")])
    | _text
)
_trees = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_text, children, max_size=5)
    ),
    max_leaves=25,
)
_deep_trees = st.builds(
    nest, _trees, st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=45, max_size=50)
)
json_containers = (
    st.lists(_trees, max_size=6)
    | st.lists(_trees, max_size=6).map(tuple)
    | st.dictionaries(_text, _trees, max_size=6)
    | _deep_trees
)


@settings(max_examples=150, deadline=None)
@given(json_containers)
@example(EDGE_TREE)
@example([EDGE_TREE, (EDGE_TREE,)])
def test_canonical_json_matches_stdlib_on_json_trees(tree):
    expected = oracle(tree)
    with stdlib_unavailable():
        assert canonical_json(tree) == expected


class StrKind(str, Enum):
    A = "a"


class IntKind(IntEnum):
    ONE = 1


def _circular():
    items = [1]
    items.append(items)
    return items


@pytest.mark.parametrize(
    "value",
    [
        {"category": StrKind.A, "z": [StrKind.A]},
        {StrKind.A: 1},
        [IntKind.ONE, True],
        {1: "int key"},
        {"b": 1, 2: "mixed keys"},
        {"ok": 1.5, "bad": {1, 2}},
        _circular(),
        {"cycle": _circular()},
        "top-level string",
        1e-05,
    ],
    ids=["str-enum-value", "str-enum-key", "int-enum", "int-key", "mixed-keys", "set",
         "circular", "nested-circular", "top-string", "top-float"],
)
def test_canonical_json_falls_back_to_stdlib(value):
    try:
        expected = oracle(value)
    except Exception as exc:  # the standard library's own error is the expectation
        with pytest.raises(type(exc)) as raised:
            canonical_json(value)
        assert str(raised.value) == str(exc)
    else:
        assert canonical_json(value) == expected


def test_canonical_json_leaves_recursion_error_to_stdlib():
    tree = nest(0, ["list"] * (sys.getrecursionlimit() + 100))
    with pytest.raises(RecursionError):
        oracle(tree)
    with pytest.raises(RecursionError):
        canonical_json(tree)


def test_canonical_json_matches_stdlib_on_corpus():
    docs, _ = gen_corpus(CorpusSpec(seed=5, n_docs=4, pages_min=1, pages_max=3,
                                    cross_page_split_prob=0.5))
    parsed = [process_document(doc).parsed for doc in docs]
    structured = [oracle(_doc_to_dict(p)) for p in parsed]
    ir = [oracle(document_to_dict(doc)).encode("utf-8") for doc in docs]
    with stdlib_unavailable():
        assert [to_structured(p) for p in parsed] == structured
        assert [document_bytes(doc) for doc in docs] == ir
