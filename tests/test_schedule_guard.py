"""Schedule guard: the simulator's reports on a fixed workload, pinned by digest.

A runtime refactor that claims to keep every schedule must leave these
digests alone. A change that moves the schedule on purpose updates them and
says why. The workload injects retryable failures, some of which exhaust
their retries, and keeps the pipeline's queues tight enough for
backpressure. Every mode runs it under two descriptor tables: the default
one, and a capped one (max_batch 3, one replica per expert). A second
workload interleaves furniture-only documents, which plan no task, with the
generated ones.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import SemanticCategory as C
from uniparse.engine import analyze_and_plan
from uniparse.experts import default_descriptors
from uniparse.runtime import (
    Mode,
    PipelineConfig,
    contention_free_config,
    run_pipeline,
    simulate_scaling,
)

from conftest import det, one_page_doc

SEED = 11
TABLES = {"default": {}, "capped": {"max_batch": 3, "replicas": 1}}

# sha256 of the canonical JSON of [to_report(), doc_latency_ms] per table and
# mode, and of the scaling report. The seq and par digests were recorded
# before the runtime's mid-run table replacement was deleted, which kept them.
# The pipe and scaling digests were re-recorded when a batch an expert starts
# below its size began to take its modality's queued tasks.
REPORT_DIGESTS = {
    "default": {
        Mode.SEQUENTIAL: "c699474e8e8921d8e13b8fd0e1730993e01074a930e59e74395d76bec82691ee",
        Mode.PARALLEL_GATHER: "e3ab8d3139fca5f5b331b75ebe758137faa5d0b7557f8348247d0e3f3f4be15a",
        Mode.PIPELINE_PARALLEL: "6f21f90c888ad016de5695e681536adc59624a482f3e2732c223428c52555611",
    },
    "capped": {
        Mode.SEQUENTIAL: "47f5e945e44c5609547b81a250471de4b37f333158bae312410c5b17bbf36cc5",
        Mode.PARALLEL_GATHER: "9993c33571233e3c14fcbb1be73d1156735a344bbddb1ceddbc0f53f6cb4337c",
        Mode.PIPELINE_PARALLEL: "12df8abaa5bc8c29b21053474daeb4517e3edcbb1f61940767d8f10754d2d280",
    },
}
# The same, on the workload with task-less documents. The seq and par digests
# were recorded while a task-less document took no dispatch step in pipe mode;
# the pipe digests were re-recorded with the batch top-up.
TASKLESS_DIGESTS = {
    "default": {
        Mode.SEQUENTIAL: "15a657af82b681ea335bfe1aeba540220ab5bec75e41fc411d1e04d80478f565",
        Mode.PARALLEL_GATHER: "694ad359400daa2adf61651c43b12d5be36d1d21288edfb8bbca5659c1724802",
        Mode.PIPELINE_PARALLEL: "cacf4e4d5480d0fa85e73b9204edd3c5ef6e5205c96a057a3c2e470b505b3e24",
    },
    "capped": {
        Mode.SEQUENTIAL: "ea86b8942282a9efdf7a92a2429d8183f2b35673747c15e9401286d42ffc4e27",
        Mode.PARALLEL_GATHER: "e20c33a5b8d0bbc6ae233d3a7506ca299857f734e47b8529b28e847470a05920",
        Mode.PIPELINE_PARALLEL: "79904be8b23d6e00d987357ce2d69e6008ce7a51fd443cda07aec4db6342249f",
    },
}
SCALING_DIGEST = "93007f388cd61329f435731c553740ddcdd777ff16440550938d22b982950e9a"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def docs():
    return gen_corpus(CorpusSpec(seed=SEED, n_docs=6, pages_min=1, pages_max=3))[0]


def furniture_only_doc(doc_id: str):
    # a running header and a page number: the plan has no tasks
    return one_page_doc([
        det(f"{doc_id}h", (0.1, 0.02, 0.9, 0.05), C.HEADER, truth_text="running head"),
        det(f"{doc_id}n", (0.45, 0.95, 0.55, 0.98), C.PAGE_NUMBER, truth_text="7"),
    ], doc_id=doc_id)


@pytest.fixture(scope="module")
def taskless_docs(docs):
    """empty0, d000, d001, empty1, d002, d003, empty2, d004, d005, empty3."""
    mixed = [furniture_only_doc("empty0")]
    for i, doc in enumerate(docs):
        mixed.append(doc)
        if i % 2:
            mixed.append(furniture_only_doc(f"empty{i // 2 + 1}"))
    return mixed


def guard_config(mode: Mode, table: str) -> PipelineConfig:
    return PipelineConfig(
        mode=mode,
        engine=EngineConfig(queue_capacity=6, max_in_flight_docs=3, max_retries=2),
        experts=default_descriptors(seed=SEED, failure_rate=0.15, **TABLES[table]),
        seed=SEED,
    )


def assert_pinned(docs, mode: Mode, table: str) -> None:
    _outputs, metrics = run_pipeline(docs, guard_config(mode, table))
    assert metrics.retries > 0 and metrics.tasks_failed > 0
    assert digest([metrics.to_report(), metrics.doc_latency_ms]) == REPORT_DIGESTS[table][mode]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
def test_report_and_latencies_are_pinned(docs, mode):
    assert_pinned(docs, mode, "default")


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
def test_capped_table_report_and_latencies_are_pinned(docs, mode):
    assert_pinned(docs, mode, "capped")


@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
def test_taskless_documents_report_and_latencies_are_pinned(taskless_docs, mode, table):
    engine = EngineConfig()
    empty = [doc for doc in taskless_docs if not analyze_and_plan(doc, engine)[1].tasks]
    assert [doc.doc_id for doc in empty] == ["empty0", "empty1", "empty2", "empty3"]
    _outputs, metrics = run_pipeline(taskless_docs, guard_config(mode, table))
    assert metrics.retries > 0
    assert digest([metrics.to_report(), metrics.doc_latency_ms]) == TASKLESS_DIGESTS[table][mode]


def test_scaling_sweep_is_pinned(docs):
    report = simulate_scaling(docs, [1, 8], contention_free_config(seed=SEED))
    assert digest(report.to_report()) == SCALING_DIGEST
