"""Output checks. Each returns a list of problems; an empty list passes.

They take plain values (orders, dumps, counters) so that the self-tests can
feed them a deliberately corrupted output.
"""

from __future__ import annotations

import json
from collections import Counter

from uniparse.corpus import grouping_f1, order_edit_distance
from uniparse.dispatch import PLACEHOLDER_PREFIX


def reference_order(pred: list[str], truth: list[str], where: str) -> list[str]:
    """Reading order equals the generator's truth (edit distance 0)."""
    dist = order_edit_distance(pred, truth)
    return [] if dist == 0.0 else [f"{where}: order edit distance {dist:.4f}"]


def grouping(pred_pairs, truth_pairs, where: str) -> list[str]:
    _p, _r, f1 = grouping_f1(pred_pairs, truth_pairs)
    return [] if f1 == 1.0 else [f"{where}: grouping F1 {f1:.4f}"]


def permutation(order: list[str], units: list[str], where: str) -> list[str]:
    """The page's order holds each of its units exactly once."""
    if len(order) == len(units) and Counter(order) == Counter(units):
        return []
    return [f"{where}: order is not a permutation of its {len(units)} units"]


def no_placeholders(text: str, where: str) -> list[str]:
    return [f"{where}: placeholder left in output"] if PLACEHOLDER_PREFIX in text else []


def no_failed_tokens(tokens_failed: int, failed_tasks, where: str) -> list[str]:
    if tokens_failed or failed_tasks:
        return [f"{where}: {tokens_failed} failed tokens, {len(failed_tasks)} failed tasks"]
    return []


def batch_caps(batches, caps: dict[str, int], where: str) -> list[str]:
    """No batch from form_batches is larger than its modality's cap."""
    return [
        f"{where}: {b.modality} batch of {len(b.tasks)} exceeds cap {caps[b.modality]}"
        for b in batches
        if len(b.tasks) > caps[b.modality]
    ]


def detections_once(dump: str, detection_ids, inline_latex: dict[str, str],
                    where: str) -> list[str]:
    """Every detection appears exactly once in a structured dump: as an item,
    a partner or a merged id, or, for a nested inline formula, as its
    rendered `$...$` span inside its parent's text."""
    data = json.loads(dump)
    seen: Counter = Counter()
    texts: list[str] = []

    def walk(section: dict) -> None:
        for item in section["body"]:
            seen[item["id"]] += 1
            seen.update(item["provenance"]["merged_ids"])
            seen.update(p["id"] for p in item["partners"])
            payload = item["payload"] or {}
            if isinstance(payload.get("value"), str):
                texts.append(payload["value"])
        for child in section["children"]:
            walk(child)

    walk(data["root"])
    joined = "\n".join(texts)
    problems = []
    for det_id in detection_ids:
        count = seen[det_id]
        if det_id in inline_latex:
            count += joined.count(f"${inline_latex[det_id]}$")
        if count != 1:
            problems.append(f"{where}: detection {det_id} appears {count} times")
    unknown = set(seen) - set(detection_ids)
    if unknown:
        problems.append(f"{where}: unknown ids in dump: {sorted(unknown)[:3]}")
    return problems


def conservation(dispatched: int, completed: int, failed: int, where: str) -> list[str]:
    if dispatched == completed + failed:
        return []
    return [f"{where}: dispatched {dispatched} != completed {completed} + failed {failed}"]

