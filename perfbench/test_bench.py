"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run  # puts the checkout's src/ on sys.path
import checks
import workloads
from uniparse.docmodel import document_bytes
from uniparse.engine import MockBackend
from uniparse.experts import DocumentStore
from uniparse.runtime import Mode, run_pipeline

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrinks every workload to a few documents and two timed passes."""
    monkeypatch.setattr(workloads, "REFERENCE_PAGES", {1: 2, 2: 2, 3: 2})
    monkeypatch.setattr(workloads, "STREAM_PAGES", {2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
    monkeypatch.setattr(workloads, "DENSE_PARAGRAPHS", tuple(range(10, 31, 2)))
    monkeypatch.setattr(workloads, "WORK", {name: (2, 1) for name in workloads.WORKLOADS})


def _run(capsys, monkeypatch, tmp_path, workload: str, trace: int) -> tuple[int, str]:
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    return code, capsys.readouterr().out


def test_spec_lists_exactly_the_metrics_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric_with_its_unit(capsys, monkeypatch, tmp_path,
                                                          workload, trace):
    layers = {name: getattr(module, attr) for name, (module, attr) in run.LAYER_CALLS.items()}
    code, out = _run(capsys, monkeypatch, tmp_path, workload, trace)
    # the traced passes put the program's own layer functions back
    assert layers == {name: getattr(module, attr)
                      for name, (module, attr) in run.LAYER_CALLS.items()}
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines[:-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        # the human-readable table names it too, with its unit
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines)
    if trace:
        events = json.loads((tmp_path / f"trace-{workload}-seed5.json").read_text())
        names = {e["name"] for e in events["traceEvents"]}
        assert {"document", "ordering.order_units", "runtime.simulate_scaling"} <= names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.build(workload, 9)
    b = workloads.build(workload, 9)
    c = workloads.build(workload, 10)
    assert [document_bytes(d) for d in a.docs] == [document_bytes(d) for d in b.docs]
    assert [document_bytes(d) for d in a.docs] != [document_bytes(d) for d in c.docs]
    assert a.jitter_seed != 0 and a.experts["ocr"].latency.jitter_seed == a.jitter_seed


def _first_output(workload: str):
    wl = workloads.build(workload, 2)
    backend = MockBackend(DocumentStore(wl.docs), wl.experts)
    doc = wl.docs[0]
    out = run.run_doc(doc, wl, backend)
    assert run.check_doc(doc, out, wl, backend) == []
    return wl, backend, doc, out


def test_swapped_pair_in_one_page_order_fails_the_reference_check():
    wl, backend, doc, out = _first_output("reference")
    units = out.result.analyses[0].units
    units[0], units[1] = units[1], units[0]
    problems = run.check_doc(doc, out, wl, backend)
    assert any("order edit distance" in p for p in problems)


def test_dropped_item_fails_the_dense_detection_check():
    wl, backend, doc, out = _first_output("dense")
    data = json.loads(out.structured)
    data["root"]["body"].pop(3)
    out.structured = json.dumps(data)
    problems = run.check_doc(doc, out, wl, backend)
    assert any("appears 0 times" in p for p in problems)


def test_dropped_task_fails_the_run(capsys, monkeypatch, tmp_path):
    import uniparse.engine
    import uniparse.runtime

    real_form_batches = uniparse.engine.form_batches

    def dropping(tasks, max_batch, caps=None):
        batches = real_form_batches(tasks, max_batch, caps)
        if batches and len(batches[0].tasks) > 1:
            batches[0].tasks.pop()
        return batches

    monkeypatch.setattr(uniparse.engine, "form_batches", dropping)
    monkeypatch.setattr(uniparse.runtime, "form_batches", dropping)
    code, out = _run(capsys, monkeypatch, tmp_path, "reference", 0)
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_conservation_check():
    wl = workloads.build("stream", 2)
    _outputs, metrics = run_pipeline(wl.docs, wl.mode_config(Mode.PIPELINE_PARALLEL))
    assert metrics.retries > 0  # failures were injected and retried
    assert checks.conservation(metrics.tasks_dispatched, metrics.tasks_completed,
                               metrics.tasks_failed, "pipe") == []
    assert checks.conservation(metrics.tasks_dispatched, metrics.tasks_completed - 1,
                               metrics.tasks_failed, "pipe")


def test_oversized_batch_fails_the_cap_check():
    wl, backend, _doc, out = _first_output("reference")
    tasks = out.result.plan.tasks
    batch = run.form_batches(tasks, len(tasks))[0]
    caps = {batch.modality: len(batch.tasks) - 1}
    assert checks.batch_caps([batch], caps, "doc")
    assert checks.batch_caps([dataclasses.replace(batch, tasks=batch.tasks[:1])], caps, "doc") == []


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(i) for i in range(100)]
    value, pct = run.tail(samples)
    assert value == 89.0 and pct == 90.0
    assert sum(1 for s in samples if s > value) == 10
