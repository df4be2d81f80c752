from __future__ import annotations

import functools
import random

import pytest

from uniparse.config import EngineConfig
from uniparse.corpus import (
    CorpusSpec,
    InvalidSpec,
    gen_corpus,
    grouping_f1,
    order_edit_distance,
)
from uniparse.docmodel import SemanticCategory as C, document_bytes, validate_document
from uniparse.engine import analyze_pages

from conftest import detections_by_id, strip_group_hints


def brute_levenshtein(a, b):
    """Independent recursive oracle for short sequences."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def test_same_seed_identical_corpora():
    spec = CorpusSpec(seed=13, n_docs=4, pages_min=1, pages_max=3,
                      jitter_sigma=0.004, merge_prob=0.2, substitution_prob=0.1,
                      cross_page_split_prob=0.5)
    docs1, truth1 = gen_corpus(spec)
    docs2, truth2 = gen_corpus(spec)
    assert [document_bytes(d) for d in docs1] == [document_bytes(d) for d in docs2]
    assert truth1.to_dict() == truth2.to_dict()


def test_different_seeds_differ():
    a, _ = gen_corpus(CorpusSpec(seed=1, n_docs=2))
    b, _ = gen_corpus(CorpusSpec(seed=2, n_docs=2))
    assert [document_bytes(d) for d in a] != [document_bytes(d) for d in b]


def test_split_prob_one_splits_every_boundary():
    spec = CorpusSpec(seed=21, n_docs=6, pages_min=2, pages_max=4, cross_page_split_prob=1.0)
    docs, truth = gen_corpus(spec)
    for doc in docs:
        boundaries = len(doc.pages) - 1
        assert len(truth.docs[doc.doc_id].merges) == boundaries
    kinds = {m.kind for t in truth.docs.values() for m in t.merges}
    assert kinds == {"table", "paragraph", "reaction"}


def test_generated_docs_validate_clean_under_perturbation():
    for spec in (
        CorpusSpec(seed=3, n_docs=3),
        CorpusSpec(seed=3, n_docs=3, jitter_sigma=0.02),
        CorpusSpec(seed=3, n_docs=3, merge_prob=0.5, substitution_prob=0.5),
        CorpusSpec(seed=3, n_docs=3, cross_page_split_prob=1.0, pages_min=2, pages_max=3),
        CorpusSpec(seed=3, n_docs=2, columns=1),
        CorpusSpec(seed=3, n_docs=2, columns=3),
    ):
        docs, _ = gen_corpus(spec)
        for doc in docs:
            validate_document(doc)


def test_truth_order_ids_exist_after_merge_perturbation():
    spec = CorpusSpec(seed=5, n_docs=4, merge_prob=0.7)
    docs, truth = gen_corpus(spec)
    for doc in docs:
        ids = {d.id for d in doc.iter_detections()}
        for page in truth.docs[doc.doc_id].pages:
            assert set(page.order) <= ids


def test_hint_stripping_removes_all_hints():
    docs, _ = gen_corpus(CorpusSpec(seed=2, n_docs=2))
    stripped = strip_group_hints(docs[0])
    assert all(d.group_hint is None for d in stripped.iter_detections())
    assert stripped.doc_id == docs[0].doc_id


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        gen_corpus(CorpusSpec(merge_prob=1.5))
    with pytest.raises(InvalidSpec):
        gen_corpus(CorpusSpec(jitter_sigma=-0.1))
    with pytest.raises(InvalidSpec):
        gen_corpus(CorpusSpec(columns=4))
    with pytest.raises(InvalidSpec):
        gen_corpus(CorpusSpec(n_docs=0))


# --- order edit distance -------------------------------------------------------


def test_edit_distance_identical_zero():
    assert order_edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_edit_distance_swap_is_two_thirds():
    # brute-force Levenshtein oracle confirms the distance is 2 (one del + one ins)
    assert brute_levenshtein(("a", "b", "c"), ("a", "c", "b")) == 2
    assert order_edit_distance(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(2 / 3)


def test_edit_distance_empty_sequences():
    assert order_edit_distance([], []) == 0.0
    assert order_edit_distance([], ["a"]) == 1.0
    assert order_edit_distance(["a"], []) == 1.0


def test_edit_distance_matches_oracle_fuzz():
    rng = random.Random(55)
    alphabet = [f"u{i}" for i in range(6)]
    for _ in range(300):
        a = tuple(rng.sample(alphabet, rng.randint(0, 5)))
        b = tuple(rng.sample(alphabet, rng.randint(0, 5)))
        got = order_edit_distance(list(a), list(b))
        if not a and not b:
            assert got == 0.0
            continue
        assert got == pytest.approx(brute_levenshtein(a, b) / max(len(a), len(b)))
        assert 0.0 <= got <= 1.0


def test_edit_distance_extremes():
    assert order_edit_distance(["x", "y"], ["x", "y"]) == 0.0
    assert order_edit_distance(["x", "y"], ["p", "q"]) == 1.0


# --- grouping F1 ---------------------------------------------------------------


def test_f1_perfect():
    pairs = [("a", "b"), ("c", "d")]
    assert grouping_f1(pairs, pairs) == (1.0, 1.0, 1.0)


def test_f1_empty_pred_convention():
    assert grouping_f1([], [("a", "b")]) == (0.0, 0.0, 0.0)


def test_f1_half():
    pred = [("a", "b"), ("x", "y")]
    truth = [("a", "b"), ("c", "d")]
    p, r, f1 = grouping_f1(pred, truth)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_f1_unordered_pairs():
    assert grouping_f1([("b", "a")], [("a", "b")]) == (1.0, 1.0, 1.0)


def test_f1_bounds_fuzz():
    rng = random.Random(8)
    ids = [f"n{i}" for i in range(8)]
    for _ in range(200):
        pred = {tuple(sorted(rng.sample(ids, 2))) for _ in range(rng.randint(0, 5))}
        truth = {tuple(sorted(rng.sample(ids, 2))) for _ in range(rng.randint(0, 5))}
        p, r, f1 = grouping_f1(pred, truth)
        for v in (p, r, f1):
            assert 0.0 <= v <= 1.0
        if pred == truth:
            assert f1 == 1.0


# --- perturbation behavior ------------------------------------------------------


def mean_edit_distance(spec: CorpusSpec, cfg: EngineConfig) -> float:
    docs, truth = gen_corpus(spec)
    dists = []
    for doc in docs:
        analyses = analyze_pages(doc, cfg)
        for analysis, page_truth in zip(analyses, truth.docs[doc.doc_id].pages):
            pred = [u.unit_id for u in analysis.units]
            dists.append(order_edit_distance(pred, page_truth.order))
    return sum(dists) / len(dists)


def test_jitter_monotonicity_small_scale(cfg):
    values = [
        mean_edit_distance(CorpusSpec(seed=0, n_docs=25, jitter_sigma=s), cfg)
        for s in (0.0, 0.005, 0.02)
    ]
    assert values[0] == 0.0
    assert values[0] <= values[1] <= values[2]


def test_inline_children_have_matching_markers():
    from uniparse.payloads import INLINE_MARKER, TableGrid

    docs, truth = gen_corpus(CorpusSpec(seed=14, n_docs=5))
    for doc in docs:
        dets = detections_by_id(doc)
        for record in truth.docs[doc.doc_id].inline:
            parent = dets[record.parent_id]
            if parent.truth_text is not None:
                markers = parent.truth_text.count(INLINE_MARKER)
            else:
                grid = parent.truth_payload
                assert isinstance(grid, TableGrid)
                markers = sum(cell.text().count(INLINE_MARKER) for cell in grid.cells)
            assert markers == len(record.child_ids)
