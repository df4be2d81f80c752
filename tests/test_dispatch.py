from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.dispatch import (
    ROUTE_TABLE,
    MissingResult,
    Task,
    TaskFailure,
    batch_stack,
    gather,
    make_placeholders,
    plan_document,
    route_table,
)
from uniparse.docmodel import SemanticCategory as C
from uniparse.engine import analyze_pages, form_batches
from uniparse.experts import MODALITIES, ExpertResponse
from uniparse.layout import build_page_tree
from uniparse.payloads import (
    INLINE_MARKER,
    Caption,
    Cell,
    ChartTable,
    ESmiles,
    Latex,
    Reaction,
    TableGrid,
    Text,
    render_inline,
)

from conftest import det, detections_by_id, find, one_page_doc


def test_route_table_examples():
    routes = route_table(True)
    assert routes is ROUTE_TABLE
    assert routes[C.MOLECULE] == "ocsr"
    assert routes[C.TABLE] == "table_structure"
    assert routes[C.WATERMARK] is None
    assert routes[C.PARAGRAPH] == "ocr"
    assert routes[C.FORMULA_INLINE] == "formula"
    assert routes[C.CHEMICAL_REACTION] == "reaction"
    assert routes[C.CHART] == "chart"
    assert routes[C.FIGURE] == "caption"
    assert route_table(False)[C.FIGURE] is None
    assert routes[C.CODE_BLOCK] == "ocr"


def test_routing_totality():
    assert set(ROUTE_TABLE) == set(C)
    # With captioning off, only the captioning routes change, to no task.
    off = route_table(False)
    assert set(off) == set(C)
    assert {c: m for c, m in ROUTE_TABLE.items() if off[c] != m} == {
        C.FIGURE: "caption", C.IMAGE: "caption"}
    assert off[C.FIGURE] is off[C.IMAGE] is None


def test_make_placeholders_single_inline():
    para = det("p1", (0.1, 0.1, 0.5, 0.3), truth_text=f"see {INLINE_MARKER} here")
    inline = det("f1", (0.2, 0.15, 0.25, 0.18), C.FORMULA_INLINE)
    tree = build_page_tree(0, [para, inline])
    assert make_placeholders(find(tree, "p1")) == [("[[UPH:formula:f1]]", "f1")]


def test_make_placeholders_empty_for_plain_paragraph():
    para = det("p1", (0.1, 0.1, 0.5, 0.3), truth_text="plain")
    tree = build_page_tree(0, [para])
    assert make_placeholders(find(tree, "p1")) == []


def test_make_placeholders_reading_order_of_children():
    # two children on one line (x order), one on the next line
    para = det("p1", (0.1, 0.1, 0.6, 0.3))
    c_right = det("a2", (0.40, 0.12, 0.45, 0.15), C.FORMULA_INLINE)
    c_left = det("a1", (0.15, 0.12, 0.20, 0.15), C.MOLECULE)
    c_below = det("a3", (0.15, 0.22, 0.20, 0.25), C.FORMULA_INLINE)
    tree = build_page_tree(0, [para, c_right, c_left, c_below])
    assert [token for token, _child in make_placeholders(find(tree, "p1"))] == [
        "[[UPH:molecule:a1]]", "[[UPH:formula:a2]]", "[[UPH:formula:a3]]"]
    # two children are sorted too; only a lone child is taken as it is
    tree = build_page_tree(0, [para, c_right, c_left])
    assert [token for token, _child in make_placeholders(find(tree, "p1"))] == [
        "[[UPH:molecule:a1]]", "[[UPH:formula:a2]]"]


def cut(queue, now, max_batch, max_wait_ms):
    """What the simulator offers its pool: the due tasks, cut by form_batches."""
    due = batch_stack(queue, now, max_batch, max_wait_ms)
    return form_batches([queue.popleft()[0] for _ in range(due)], max_batch)


def _task(i):
    return Task(task_id=f"d/t{i}", modality="ocr", doc_id="d", page_index=0,
                detection_id=f"t{i}")


def test_batch_stack_full_takes_oldest():
    # FIFO oracle: arrival timestamps sort the queue; the batch is the prefix
    arrivals = [(_task(i), float(i)) for i in range(10)]
    queue = deque(arrivals)
    batches = cut(queue, now=100.0, max_batch=8, max_wait_ms=1000.0)
    assert len(batches) == 1
    batch = batches[0]
    assert batch is not None and len(batch.tasks) == 8  # full
    oldest_eight = [t.task_id for t, _ in sorted(arrivals, key=lambda p: p[1])[:8]]
    assert [t.task_id for t in batch.tasks] == oldest_eight
    assert len(queue) == 2


def test_batch_stack_young_queue_waits():
    queue = deque([(_task(i), 0.0) for i in range(3)])
    assert batch_stack(queue, now=0.0, max_batch=8, max_wait_ms=50.0) == 0
    assert cut(queue, now=0.0, max_batch=8, max_wait_ms=50.0) == []
    assert len(queue) == 3


def test_batch_stack_timeout_boundary_inclusive():
    queue = deque([(_task(i), 0.0) for i in range(3)])
    batches = cut(queue, now=50.0, max_batch=8, max_wait_ms=50.0)
    assert len(batches) == 1
    batch = batches[0]
    assert batch is not None and len(batch.tasks) == 3 < 8  # partial, due by its age
    assert len(queue) == 0


def test_batch_stack_due_is_full_batches_then_the_aged_rest():
    # 19 tasks, the last 3 enqueued at t=10: at t=30 only the two full
    # batches are due; once the rest's head has waited 50 ms, all 19 are
    queue = deque([(_task(i), 0.0 if i < 16 else 10.0) for i in range(19)])
    assert batch_stack(queue, now=30.0, max_batch=8, max_wait_ms=50.0) == 16
    assert batch_stack(queue, now=60.0, max_batch=8, max_wait_ms=50.0) == 19
    batches = cut(queue, now=60.0, max_batch=8, max_wait_ms=50.0)
    assert [len(b.tasks) for b in batches] == [8, 8, 3]
    assert [t.task_id for b in batches for t in b.tasks] == [f"d/t{i}" for i in range(19)]


def _plan_and_outcomes(detections, cfg=None, fail_ids=(), only_modality=None):
    cfg = cfg or EngineConfig()
    doc = one_page_doc(detections)
    analyses = analyze_pages(doc, cfg)
    plan = plan_document(doc, [a.tree for a in analyses], cfg, only_modality=only_modality)
    outcomes = {}
    from uniparse.experts import mock_payload

    dets = detections_by_id(doc)
    for task in plan.tasks:
        if task.detection_id in fail_ids:
            outcomes[task.task_id] = TaskFailure(
                task.task_id, task.modality, task.detection_id, "forced"
            )
        else:
            outcomes[task.task_id] = ExpertResponse(
                task.task_id,
                mock_payload(task.modality, dets[task.detection_id], task.placeholders),
            )
    return plan, outcomes


def _inline_fixture():
    para = det("p1", (0.1, 0.1, 0.5, 0.3), truth_text=f"see {INLINE_MARKER} here")
    inline = det("f1", (0.2, 0.15, 0.25, 0.18), C.FORMULA_INLINE, truth_payload=Latex("x^2"))
    return [para, inline]


def test_gather_substitution_matches_string_oracle():
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    result = gather(plan, outcomes)
    # independent oracle: plain string substitution of the token
    assert result.resolved["p1"] == Text("see $x^2$ here")
    assert result.tokens_resolved == 1 and result.tokens_failed == 0


def test_gather_replaces_every_occurrence_of_a_token():
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    outcomes["doc/p1"] = ExpertResponse("doc/p1", Text("a [[UPH:formula:f1]] b [[UPH:formula:f1]]"))
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("a $x^2$ b $x^2$")
    assert result.tokens_resolved == 1 and result.tokens_failed == 0


def test_unplanned_tokens_in_an_answer_are_deleted_and_counted_nowhere():
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    outcomes["doc/p1"] = ExpertResponse(
        "doc/p1", Text("see [[UPH:formula:f1]] and [[UPH:formula:zz]]"))
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("see $x^2$ and ")
    assert result.tokens_resolved == 1 and result.tokens_failed == 0

    plan, outcomes = _plan_and_outcomes([det("p1", (0.1, 0.1, 0.5, 0.3), truth_text="plain"),
                                         _one_marker_table_with_two_formulas()[0]])
    assert plan.tokens_emitted == 0
    outcomes["doc/p1"] = ExpertResponse("doc/p1", Text("plain [[UPH:chart:c9]] text"))
    outcomes["doc/t1"] = ExpertResponse("doc/t1", TableGrid(1, 1, (
        Cell(0, 0, content=("[[UPH:molecule:m1]]a", "[[FAILED:ocr:x]]")),)))
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("plain  text")
    assert result.resolved["t1"].cells[0].content == ("a", "[[FAILED:ocr:x]]")
    assert result.tokens_resolved == 0 and result.tokens_failed == 0


def _grid_of(run):
    return TableGrid(1, 1, (Cell(0, 0, content=(run,)),))


@pytest.mark.parametrize("kind", [Text, Latex, ESmiles, Caption, _grid_of,
                                  lambda run: ChartTable(_grid_of(run)),
                                  lambda run: Reaction((run,), ("h",), (run,))],
                         ids=["text", "latex", "smiles", "caption", "grid", "chart", "reaction"])
def test_tokens_are_filled_and_scrubbed_in_every_answer_kind(kind):
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    outcomes["doc/p1"] = ExpertResponse("doc/p1", kind("a [[UPH:formula:f1]] b [[UPH:ocr:q]]"))
    # a child's answer is scrubbed before and after it lands in its parent
    outcomes["doc/f1"] = ExpertResponse("doc/f1", kind("x [[UPH:ocr:q]]"))
    result = gather(plan, outcomes)
    child = kind("x ")
    assert result.resolved["f1"] == child
    assert result.resolved["p1"] == kind(f"a {render_inline(child)} b ")
    assert result.tokens_resolved == 1 and result.tokens_failed == 0
    assert plan.tokens_emitted == result.tokens_resolved + result.tokens_failed


def test_token_of_a_child_without_a_task_resolves_to_the_empty_span():
    para = det("p1", (0.1, 0.1, 0.5, 0.3), truth_text=f"see {INLINE_MARKER} here")
    figure = det("g1", (0.2, 0.15, 0.25, 0.18), C.FIGURE)
    plan, outcomes = _plan_and_outcomes([para, figure], EngineConfig(captioning_enabled=False))
    assert [t.detection_id for t in plan.tasks] == ["p1"]
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("see  here")
    assert plan.tokens_emitted == 1
    assert result.tokens_resolved == 1 and result.tokens_failed == 0


def test_gather_without_placeholders_is_identity():
    plan, outcomes = _plan_and_outcomes([det("p1", (0.1, 0.1, 0.5, 0.3), truth_text="plain")])
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("plain")


def test_gather_failed_child_renders_diagnostic_span():
    plan, outcomes = _plan_and_outcomes(_inline_fixture(), fail_ids={"f1"})
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("see [[FAILED:formula:f1]] here")
    assert result.tokens_failed == 1 and result.tokens_resolved == 0
    assert len(result.failures) == 1


def test_gather_resolves_in_cell_molecule():
    from uniparse.payloads import Cell, ESmiles, TableGrid

    grid = TableGrid(2, 2, (
        Cell(0, 0, content=("h1",)), Cell(0, 1, content=("h2",)),
        Cell(1, 0, content=(f"mol {INLINE_MARKER}",)), Cell(1, 1, content=("x",)),
    ))
    table = det("t1", (0.1, 0.1, 0.6, 0.4), C.TABLE, truth_payload=grid)
    mol = det("m1", (0.15, 0.25, 0.2, 0.3), C.MOLECULE, truth_payload=ESmiles("CCO"))
    plan, outcomes = _plan_and_outcomes([table, mol])
    result = gather(plan, outcomes)
    out = result.resolved["t1"]
    cell = next(c for c in out.cells if (c.row, c.col) == (1, 0))
    assert cell.text() == "mol <smiles>CCO</smiles>"
    assert result.tokens_resolved == 1


def test_gather_missing_result_raises():
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    outcomes.pop(f"doc/f1")
    with pytest.raises(MissingResult):
        gather(plan, outcomes)


def test_gather_order_independent(small_corpus, cfg):
    docs, _ = small_corpus
    doc = docs[0]
    analyses = analyze_pages(doc, cfg)
    plan = plan_document(doc, [a.tree for a in analyses], cfg)
    from uniparse.experts import mock_payload

    dets = detections_by_id(doc)
    outcomes = {
        t.task_id: ExpertResponse(
            t.task_id, mock_payload(t.modality, dets[t.detection_id], t.placeholders)
        )
        for t in plan.tasks
    }
    baseline = gather(plan, outcomes)
    rng = random.Random(2)
    for _ in range(5):
        items = list(outcomes.items())
        rng.shuffle(items)
        shuffled = dict(items)
        again = gather(plan, shuffled)
        assert again.resolved == baseline.resolved
        assert again.tokens_resolved == baseline.tokens_resolved


def test_token_conservation_across_corpus(small_corpus, cfg):
    docs, _ = small_corpus
    for doc in docs:
        analyses = analyze_pages(doc, cfg)
        plan = plan_document(doc, [a.tree for a in analyses], cfg)
        _plan2, outcomes = _plan_and_outcomes_from(doc, plan)
        result = gather(plan, outcomes)
        assert plan.tokens_emitted == result.tokens_resolved + result.tokens_failed


def _plan_and_outcomes_from(doc, plan):
    from uniparse.experts import mock_payload

    dets = detections_by_id(doc)
    outcomes = {
        t.task_id: ExpertResponse(
            t.task_id, mock_payload(t.modality, dets[t.detection_id], t.placeholders)
        )
        for t in plan.tasks
    }
    return plan, outcomes


def test_failed_parent_counts_child_tokens(cfg):
    plan, outcomes = _plan_and_outcomes(_inline_fixture(), fail_ids={"p1"})
    result = gather(plan, outcomes)
    assert plan.tokens_emitted == 1
    assert result.tokens_failed == 1  # the child's landing site died with p1
    assert "p1" not in result.resolved


def _one_marker_table_with_two_formulas():
    grid = TableGrid(1, 2, (Cell(0, 0, content=(f"a {INLINE_MARKER}",)),
                            Cell(0, 1, content=("b",))))
    return [
        det("t1", (0.1, 0.1, 0.6, 0.3), C.TABLE, truth_payload=grid),
        det("f1", (0.15, 0.15, 0.2, 0.18), C.FORMULA_INLINE, truth_payload=Latex("x")),
        det("f2", (0.4, 0.15, 0.45, 0.18), C.FORMULA_INLINE, truth_payload=Latex("y")),
    ]


def test_grid_tokens_without_a_marker_join_the_last_cell():
    plan, outcomes = _plan_and_outcomes(_one_marker_table_with_two_formulas())
    result = gather(plan, outcomes)
    assert [c.text() for c in result.resolved["t1"].cells] == ["a $x$", "b $y$"]
    assert plan.tokens_emitted == 2
    assert result.tokens_resolved == 2 and result.tokens_failed == 0


def test_token_missing_from_the_parents_answer_counts_as_failed():
    plan, outcomes = _plan_and_outcomes(_inline_fixture())
    outcomes["doc/p1"] = ExpertResponse("doc/p1", Text("see here"))
    result = gather(plan, outcomes)
    assert result.resolved["p1"] == Text("see here")
    assert result.tokens_resolved == 0 and result.tokens_failed == 1


def _answer(draw, tokens: list[str]):
    """Any answer an expert might give a parent: a payload of any kind whose
    strings hold any multiset of its tokens and stray ones."""
    run = st.lists(st.sampled_from([*tokens, "[[UPH:formula:zz]]", "w"]), max_size=4).map(" ".join)
    kind = draw(st.sampled_from([Text, Latex, ESmiles, Caption, TableGrid, ChartTable, Reaction]))
    if kind in (TableGrid, ChartTable):
        cells = draw(st.lists(st.lists(run, max_size=2), min_size=1, max_size=3))
        grid = TableGrid(1, len(cells), tuple(Cell(0, i, content=tuple(runs))
                                              for i, runs in enumerate(cells)))
        return grid if kind is TableGrid else ChartTable(grid)
    if kind is Reaction:
        return Reaction(*(tuple(draw(st.lists(run, max_size=2))) for _ in range(3)))
    return kind(draw(run))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_token_conservation_whatever_the_experts_return(data):
    para = det("p1", (0.1, 0.5, 0.6, 0.7), truth_text=f"{INLINE_MARKER} and {INLINE_MARKER}")
    inlines = [det(f"f{3 + i}", (0.15 + 0.2 * i, 0.55, 0.2 + 0.2 * i, 0.58), C.FORMULA_INLINE,
                   truth_payload=Latex("q")) for i in (0, 1)]
    only = data.draw(st.sampled_from([None, *MODALITIES]))
    plan, outcomes = _plan_and_outcomes([*_one_marker_table_with_two_formulas(), para, *inlines],
                                        only_modality=only)
    if only is None:
        assert set(plan.parent_tokens) == {"t1", "p1"} and plan.tokens_emitted == 4
    for task in plan.tasks:
        if data.draw(st.booleans()):
            outcomes[task.task_id] = TaskFailure(
                task.task_id, task.modality, task.detection_id, "drawn")
        elif task.detection_id in plan.parent_tokens:
            tokens = [t for t, _child in plan.parent_tokens[task.detection_id]]
            outcomes[task.task_id] = ExpertResponse(task.task_id, _answer(data.draw, tokens))
    result = gather(plan, outcomes)
    assert plan.tokens_emitted == result.tokens_resolved + result.tokens_failed
    for answer in result.resolved.values():
        assert "[[UPH:" not in repr(answer)


def test_corpus_sources_never_contain_placeholder_literal(small_corpus):
    docs, _ = small_corpus
    for doc in docs:
        for d in doc.iter_detections():
            if d.truth_text:
                assert "[[UPH:" not in d.truth_text


def test_only_modality_restricts_plan(small_corpus, cfg):
    docs, _ = small_corpus
    doc = docs[0]
    analyses = analyze_pages(doc, cfg)
    plan = plan_document(doc, [a.tree for a in analyses], cfg, only_modality="ocsr")
    assert plan.tasks, "corpus doc should contain molecules"
    assert {t.modality for t in plan.tasks} == {"ocsr"}


def test_only_modality_must_name_a_modality(small_corpus, cfg):
    docs, _ = small_corpus
    trees = [a.tree for a in analyze_pages(docs[0], cfg)]
    with pytest.raises(ValueError, match="formulas"):
        plan_document(docs[0], trees, cfg, only_modality="formulas")
