"""Record types: what frozen dataclasses used to guarantee for the per-parse
records (Task, ExpertResponse, OrderUnit, FlowItem, Partner, LayoutNode), now
that they are slotted and mutable, and that every type shared beyond one
parse stays frozen and is slotted too."""

from __future__ import annotations

import copy
import dataclasses

import pytest

import uniparse.runtime as runtime
from uniparse.config import EngineConfig
from uniparse.consolidate import FlowItem, Partner
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.dispatch import TaskFailure
from uniparse.docmodel import OutlineEntry
from uniparse.engine import process_document
from uniparse.experts import ExpertDescriptor, ExpertResponse, LatencyModel, Task
from uniparse.formats import to_structured
from uniparse.layout import LayoutNode
from uniparse.ordering import OrderUnit
from uniparse.payloads import Caption, Cell, ChartTable, ESmiles, Latex, Reaction, TableGrid, Text
from uniparse.runtime import (
    Mode,
    PipelineConfig,
    compare_modes,
    contention_free_config,
    simulate_scaling,
)

from conftest import det, one_page_doc

PER_PARSE_RECORDS = (Task, ExpertResponse, OrderUnit, FlowItem, Partner, LayoutNode)


def _docs():
    docs, _truth = gen_corpus(CorpusSpec(seed=4, n_docs=3, pages_min=2, pages_max=3,
                                         cross_page_split_prob=1.0, merge_prob=0.3))
    return docs


def test_a_parses_records_are_not_shared_with_a_later_parse():
    for doc in _docs():
        result = process_document(doc)
        kept = to_structured(result.parsed)
        items = list(result.parsed.iter_items())
        records = [*items, *(p for item in items for p in item.partners), *result.plan.tasks,
                   *(unit for a in result.analyses for unit in a.units),
                   *(node for a in result.analyses for node in a.tree.iter_nodes())]
        assert records
        for record in records:
            for f in dataclasses.fields(record):
                setattr(record, f.name, None)
        assert to_structured(process_document(doc).parsed) == kept


def test_layout_nodes_hold_their_detections_fields():
    for doc in _docs():
        nodes = [node for a in process_document(doc).analyses for node in a.tree.iter_nodes()]
        assert nodes
        for node in nodes:
            det = node.detection
            assert (node.id, node.category, node.box) == (det.id, det.category, det.box)


def test_the_simulator_leaves_a_shared_plan_as_it_was(monkeypatch):
    planned_runs = []
    plan_docs = runtime._plan_docs

    def keep(docs, engine):
        planned = plan_docs(docs, engine)
        planned_runs.append((planned, copy.deepcopy(planned)))
        return planned

    monkeypatch.setattr(runtime, "_plan_docs", keep)
    docs = _docs()
    compare_modes(docs, PipelineConfig(mode=Mode.PIPELINE_PARALLEL, engine=EngineConfig(), seed=1))
    simulate_scaling(docs, [1, 2, 4], contention_free_config(seed=1, max_workers=4))
    assert len(planned_runs) == 2
    for plans, before in planned_runs:
        assert [plan.doc_id for plan in plans] == [doc.doc_id for doc in docs]
        assert any(plan.tasks for plan in plans)
        assert plans == before


_GRID = TableGrid(1, 1, (Cell(0, 0, content=("x",)),))
_DOC = one_page_doc([det("b1", (0.1, 0.1, 0.5, 0.2), truth_payload=_GRID)],
                    outline=(OutlineEntry(level=1, title="t", page_index=0),))
_SHARED = [
    _DOC, _DOC.pages[0], _DOC.pages[0].detections[0], _DOC.pages[0].detections[0].box,
    _DOC.outline[0],
    Text("x"), Latex("x"), ESmiles("C"), Caption("x"), _GRID.cells[0], _GRID,
    Reaction(reactants=("C",)), ChartTable(_GRID),
    ExpertDescriptor(modality="ocr"), LatencyModel(),
    TaskFailure(task_id="doc/b1", modality="ocr", detection_id="b1", reason="x"),
]


@pytest.mark.parametrize("obj", _SHARED, ids=lambda obj: type(obj).__name__)
def test_types_shared_beyond_a_parse_stay_frozen(obj):
    name = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


@pytest.mark.parametrize("cls", PER_PARSE_RECORDS, ids=lambda cls: cls.__name__)
def test_per_parse_records_are_slotted(cls):
    assert "__slots__" in cls.__dict__
    assert not cls.__dataclass_params__.frozen


@pytest.mark.parametrize("obj", _SHARED, ids=lambda obj: type(obj).__name__)
def test_types_shared_beyond_a_parse_are_slotted(obj):
    assert "__slots__" in type(obj).__dict__
    assert not hasattr(obj, "__dict__")
