"""Schedule guard: the simulator's reports on a fixed workload, pinned by digest.

A runtime refactor that claims to keep every schedule must leave these
digests alone. A change that moves the schedule on purpose updates them and
says why. The workload injects retryable failures, some of which exhaust
their retries, swaps in a descriptor table with a lower cap and one replica
while earlier documents are still in flight (so pipeline batches formed
before the swap are re-split), and keeps the pipeline's queues tight enough
for backpressure.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.experts import default_descriptors
from uniparse.runtime import (
    Mode,
    PipelineConfig,
    contention_free_config,
    run_pipeline,
    simulate_scaling,
)

SEED = 11

# sha256 of the canonical JSON of [to_report(), doc_latency_ms] per mode, and
# of the scaling report. Recorded before the held dispatch path was folded
# into the streamed one, which kept every one of them. The seq digest was
# re-recorded when seq reports began to count the one expert worker seq runs
# (workers 1, and an expert bubble without three never-used workers); its
# schedule did not move.
REPORT_DIGESTS = {
    Mode.SEQUENTIAL: "0c7324a1f5d51112bf5da9623af2697b4bd80e3a8782c5e79f92853e3b67f48d",
    Mode.PARALLEL_GATHER: "b9ba8e458f1e5b88e9ec48953a5f706c064b80b83ff14726f070d80b1846d96a",
    Mode.PIPELINE_PARALLEL: "feea94759b1650aad74140cecdbc549ef0a529fe340906b77324f7c1d692f72c",
}
SCALING_DIGEST = "dbd87629960ee71ee53b0a7e176ed2133ff7d4594da9e3ae62c1685973fb039d"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def docs():
    return gen_corpus(CorpusSpec(seed=SEED, n_docs=6, pages_min=1, pages_max=3))[0]


def guard_config(mode: Mode) -> PipelineConfig:
    table = default_descriptors(seed=SEED, failure_rate=0.15)
    swapped = default_descriptors(max_batch=3, replicas=1, seed=SEED, failure_rate=0.15)
    return PipelineConfig(
        mode=mode,
        engine=EngineConfig(queue_capacity=6, max_in_flight_docs=3, max_retries=2),
        experts=table,
        seed=SEED,
        descriptor_updates=((4, swapped),),
    )


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
def test_report_and_latencies_are_pinned(docs, mode):
    _outputs, metrics = run_pipeline(docs, guard_config(mode))
    assert metrics.retries > 0 and metrics.tasks_failed > 0
    assert digest([metrics.to_report(), metrics.doc_latency_ms]) == REPORT_DIGESTS[mode]


def test_scaling_sweep_is_pinned(docs):
    report = simulate_scaling(docs, [1, 8], contention_free_config(seed=SEED))
    assert digest(report.to_report()) == SCALING_DIGEST
