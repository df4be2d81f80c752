#!/usr/bin/env python3
"""uniparse benchmark: real-clock parse cost and virtual-clock runtime metrics.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Run from the repository root (the engine is imported from ./src). One
process, one client thread, closed loop: each document starts when the
previous one finishes. Every run has two phases on the workload's documents:

- real clock: `process_document` plus the four formatters, one document at a
  time, a warm-up pass and then timed passes;
- virtual clock: `run_pipeline` in seq, par and pipe mode at 4 workers, and
  `simulate_scaling` at 1 and 8 workers.

Outputs are checked; a document that raises or fails a check counts as
failed, and any failure makes the exit code 1. The last line of standard
output is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`. A traced run also writes its spans as Chrome
trace-event JSON under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The engine is imported from this checkout's src/ and from nowhere else.
if not (SRC / "uniparse" / "__init__.py").is_file():
    raise SystemExit(f"error: no uniparse sources under {SRC}")
sys.path.insert(0, str(SRC))

import uniparse  # noqa: E402

if Path(uniparse.__file__).resolve().parent != (SRC / "uniparse").resolve():
    raise SystemExit(f"error: uniparse imported from {uniparse.__file__}, not {SRC}")

import checks  # noqa: E402
from calibrate import NOMINAL_SLICE_MS, Calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
import uniparse.engine  # noqa: E402
from uniparse.engine import (  # noqa: E402
    MockBackend,
    ProcessResult,
    backend_batch_caps,
    build_flow_items,
    form_batches,
    process_document,
)
from uniparse.experts import DocumentStore  # noqa: E402
from uniparse.formats import chunk, to_html, to_markdown, to_structured  # noqa: E402
from uniparse.layout import group_pairs  # noqa: E402
from uniparse.ordering import PAGE_REGION, cut_leaves, group_cluster, xy_cut  # noqa: E402
from uniparse.runtime import Mode, run_pipeline, simulate_scaling  # noqa: E402

SETUP_REPS = 7
# Workloads with at least this many documents take one latency sample per
# document, which puts the tail at p90 or beyond.
TAIL_DOCS = 100

# Spelled out rather than read from the engine: they name metrics, and the
# metric names are part of the benchmark's definition.
MODES = ("seq", "par", "pipe")
STAGES = ("preprocess", "layout", "dispatch", "gather", "consolidate", "format", "experts")
MODALITIES = ("ocr", "formula", "table_structure", "ocsr", "reaction", "chart", "caption")

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("pages_per_s", "pages/s"),
    ("doc_latency_p50_ms", "ms"),
    ("doc_latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_seq_pps", "pages/s"),
    ("sim_par_pps", "pages/s"),
    ("sim_pipe_pps", "pages/s"),
    ("sim_scaling_efficiency", "ratio"),
    ("sim_host_ms_per_page", "ms"),
)

# Span name -> per-layer self-time metric (ms per page).
SPAN_METRICS = {
    "layout.build_page_tree": "layout.ms_per_page",
    "ordering.order_units": "ordering.ms_per_page",
    "dispatch.plan_document": "dispatch.plan_ms_per_page",
    "engine.form_batches": "dispatch.batch_ms_per_page",
    "engine.run_batches": "experts.ms_per_page",
    "dispatch.gather": "dispatch.gather_ms_per_page",
    "engine.build_flow_items": "engine.flow_ms_per_page",
    "consolidate.consolidate": "consolidate.ms_per_page",
    "formats.to_structured": "formats.structured_ms_per_page",
    "formats.to_markdown": "formats.markdown_ms_per_page",
    "formats.to_html": "formats.html_ms_per_page",
    "formats.chunk": "formats.chunks_ms_per_page",
    "document": "engine.glue_ms_per_page",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in print order."""
    units = {name: "ms" for name in SPAN_METRICS.values()}
    for name in ("layout.detections", "layout.group_links", "ordering.units",
                 "ordering.fallback_units", "dispatch.tasks", "dispatch.batches",
                 "dispatch.tokens_emitted", "dispatch.tokens_failed", "consolidate.merges",
                 "formats.chunks"):
        units[name] = "count"
    units["formats.structured_bytes"] = "bytes"
    units["ordering.fallback_share"] = "ratio"
    units["dispatch.batch_fill"] = "ratio"
    for mode in MODES:
        units[f"runtime.{mode}.host_ms"] = "ms"
        units[f"runtime.{mode}.wall_virtual_ms"] = "ms"
        for counter in ("tasks_dispatched", "tasks_completed", "tasks_failed", "retries"):
            units[f"runtime.{mode}.{counter}"] = "count"
    for stage in STAGES:
        units[f"runtime.pipe.stage.{stage}.bubble"] = "ratio"
    for modality in MODALITIES:
        units[f"experts.pipe.{modality}.utilization"] = "ratio"
        for counter in ("batches", "tasks", "retries"):
            units[f"experts.pipe.{modality}.{counter}"] = "count"
        units[f"dispatch.pipe.max_queue_depth.{modality}"] = "count"
    for stage in ("layout", "dispatch", "gather", "consolidate", "format"):
        units[f"model.{stage}.measured_over_modelled"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# Times the import in a fresh interpreter, then calibration slices in that
# same process (after a few untimed ones, while the interpreter warms up).
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import uniparse, uniparse.engine, uniparse.runtime\n"
    "import_s = time.perf_counter() - t\n"
    "from calibrate import calibration_slice\n"
    "for _ in range(20): calibration_slice()\n"
    "t = time.perf_counter()\n"
    "for _ in range(60): calibration_slice()\n"
    "print(import_s, (time.perf_counter() - t) * 1000 / 60)\n"
)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the engine, at nominal
    machine speed."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
                          capture_output=True, text=True, timeout=60, check=True)
    import_s, slice_ms = map(float, proc.stdout.split())
    return import_s * NOMINAL_SLICE_MS / slice_ms


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Real clock
# ---------------------------------------------------------------------------


@dataclass
class DocOutput:
    result: ProcessResult
    structured: str
    markdown: str
    html: str
    chunks: list


def run_doc(doc, wl, backend) -> DocOutput:
    """The measured path: process_document plus the four formatters."""
    result = process_document(doc, wl.engine, backend)
    parsed = result.parsed
    return DocOutput(result, to_structured(parsed), to_markdown(parsed), to_html(parsed),
                     chunk(parsed))


# Span name -> (module, attribute) of each layer function the measured path
# calls. process_document looks its layers up in uniparse.engine's globals,
# and run_doc its formatters in this module's, so rebinding them there puts a
# span around every call the program itself makes.
LAYER_CALLS = {
    "layout.build_page_tree": (uniparse.engine, "build_page_tree"),
    "ordering.order_units": (uniparse.engine, "order_units"),
    "dispatch.plan_document": (uniparse.engine, "plan_document"),
    "engine.form_batches": (uniparse.engine, "form_batches"),
    "engine.run_batches": (uniparse.engine, "run_batches"),
    "dispatch.gather": (uniparse.engine, "gather"),
    "engine.build_flow_items": (uniparse.engine, "build_flow_items"),
    "consolidate.consolidate": (uniparse.engine, "consolidate"),
    "formats.to_structured": (sys.modules[__name__], "to_structured"),
    "formats.to_markdown": (sys.modules[__name__], "to_markdown"),
    "formats.to_html": (sys.modules[__name__], "to_html"),
    "formats.chunk": (sys.modules[__name__], "chunk"),
}


@contextmanager
def layer_spans(tracer: Tracer):
    """While active, every call in LAYER_CALLS runs inside a span of its name,
    nested in (and keyed by the doc_id of) the enclosing document span."""
    saved = {name: getattr(module, attr) for name, (module, attr) in LAYER_CALLS.items()}

    def wrap(name, fn):
        return lambda *args, **kwargs: tracer.call(name, None, fn, *args, **kwargs)

    for name, (module, attr) in LAYER_CALLS.items():
        setattr(module, attr, wrap(name, saved[name]))
    try:
        yield
    finally:
        for name, (module, attr) in LAYER_CALLS.items():
            setattr(module, attr, saved[name])


def check_doc(doc, out: DocOutput, wl, backend) -> list[str]:
    """Every check on one document's real-clock outputs."""
    d = doc.doc_id
    parsed = out.result.parsed
    problems = []
    for text in (out.structured, out.markdown, out.html):
        problems += checks.no_placeholders(text, d)
    problems += checks.no_failed_tokens(parsed.tokens_failed, parsed.failed_tasks, d)
    caps = {m: min(wl.engine.max_batch, c) for m, c in backend_batch_caps(backend).items()}
    batches = form_batches(out.result.plan.tasks, wl.engine.max_batch, backend_batch_caps(backend))
    problems += checks.batch_caps(batches, caps, d)
    for analysis in out.result.analyses:
        where = f"{d} page {analysis.tree.page_index}"
        order = [u.unit_id for u in analysis.units]
        problems += checks.permutation(order, [u.unit_id for u in group_cluster(analysis.tree)],
                                       where)
    if wl.name == "reference":
        doc_truth = wl.truth.docs[d]
        pred_pairs, truth_pairs = set(), set()
        for analysis, page_truth in zip(out.result.analyses, doc_truth.pages):
            order = [u.unit_id for u in analysis.units]
            problems += checks.reference_order(order, page_truth.order,
                                               f"{d} page {page_truth.page_index}")
            pred_pairs |= group_pairs(analysis.tree)
            truth_pairs |= {frozenset(p) for p in page_truth.groups}
        problems += checks.grouping(pred_pairs, truth_pairs, d)
    if wl.name == "dense":
        ids = [det.id for det in doc.iter_detections()]
        problems += checks.detections_once(out.structured, ids, wl.inline_latex, d)
    return problems


@dataclass
class RealPhase:
    # doc id -> nominal-speed ms, one per timed pass; untraced and traced
    latencies: dict[str, list[float]]
    traced_latencies: dict[str, list[float]]
    reference_dumps: dict[str, str]  # doc id -> structured dump of the warm-up
    raw_latencies: dict[str, list[float]] = field(default_factory=dict)  # untraced, as measured
    mean_slice_ms: list[float] = field(default_factory=list)  # one per timed pass
    layer_ms: dict[str, float] = field(default_factory=dict)  # span name -> nominal self ms
    document_ms: float = 0.0  # nominal duration of all document spans
    traced_counts: dict | None = None
    traced_passes: int = 0
    attempted: int = 0
    failed: int = 0

    def doc_medians(self) -> list[float]:
        """Each document's median latency over the timed passes."""
        return [statistics.median(v) for v in self.latencies.values() if v]

    def tail_samples(self) -> tuple[list[float], str]:
        """Samples for the tail, and what one sample is.

        With enough documents for a tail at p90 or beyond, one sample per
        document, so that repeated runs of one document do not stand in for
        other documents. Otherwise (dense: 11 pages of fixed sizes) one
        sample per document run; the fixed pass count fixes the percentile.
        """
        if len(self.latencies) >= TAIL_DOCS:
            return self.doc_medians(), "documents"
        return [ms for values in self.latencies.values() for ms in values], "document runs"


def pages_per_s(wl, latencies: dict[str, list[float]]) -> float:
    """Pages over the sum of each document's median latency: the closed-loop
    rate of a typical pass, robust to one slow pass."""
    pages = sum(len(d.pages) for d in wl.docs if latencies.get(d.doc_id))
    total_ms = sum(statistics.median(v) for v in latencies.values() if v)
    return pages / total_ms * 1000.0 if total_ms else 0.0


def real_phase(wl, backend, passes: int, tracer, problems: list[str]) -> RealPhase:
    """Warm-up pass (fully checked), then a fixed number of timed passes.

    Later passes are checked by comparing their structured dumps with the
    warm-up's. With a tracer, timed passes alternate untraced and traced.
    Each timed pass's times are scaled to nominal machine speed by the
    calibration slices run between its documents.
    """
    phase = RealPhase({d.doc_id: [] for d in wl.docs}, {d.doc_id: [] for d in wl.docs}, {})
    traced_outputs: dict[str, DocOutput] = {}

    def one_pass(traced: bool, warmup: bool = False) -> Calibration:
        gc.collect()
        cal = Calibration()
        measured: list[tuple[str, float, int]] = []
        for doc in wl.docs:
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    out = tracer.call("document", doc.doc_id, run_doc, doc, wl, backend)
                else:
                    out = run_doc(doc, wl, backend)
            except Exception as exc:  # a crash is a failed document, not a dead run
                problems.append(f"{doc.doc_id}: raised {type(exc).__name__}: {exc}")
                phase.failed += 1
                continue
            dt = time.perf_counter() - t0
            index = cal.add(dt)
            if warmup:
                doc_problems = check_doc(doc, out, wl, backend)
                if doc_problems:
                    problems.extend(doc_problems)
                    phase.failed += 1
                else:
                    phase.reference_dumps[doc.doc_id] = out.structured
                continue
            expected = phase.reference_dumps.get(doc.doc_id)
            if expected is None:
                continue  # already counted as failed in the warm-up
            if out.structured != expected:
                problems.append(f"{doc.doc_id}: dump differs from the warm-up pass")
                phase.failed += 1
                continue
            measured.append((doc.doc_id, dt * 1000.0, index))
            if traced and phase.traced_counts is None:
                traced_outputs[doc.doc_id] = out
        cal.close()
        latencies = phase.traced_latencies if traced else phase.latencies
        for doc_id, ms, index in measured:
            latencies[doc_id].append(ms * cal.factors[index])
            if not traced:
                phase.raw_latencies.setdefault(doc_id, []).append(ms)
        return cal

    one_pass(False, warmup=True)
    for n in range(passes):
        traced = tracer is not None and n % 2 == 1
        first_span = len(tracer.spans) if tracer else 0
        with layer_spans(tracer) if traced else nullcontext():
            cal = one_pass(traced)
        phase.mean_slice_ms.append(cal.mean_slice_ms)
        if traced:
            phase.traced_passes += 1
            for name, ms in tracer.self_ms(first_span).items():
                phase.layer_ms[name] = phase.layer_ms.get(name, 0.0) + ms * cal.factor
            phase.document_ms += tracer.total_ms("document", first_span) * cal.factor
            if phase.traced_counts is None:
                phase.traced_counts = layer_counts(wl, backend, traced_outputs)
                traced_outputs.clear()
    return phase


def layer_counts(wl, backend, outputs: dict[str, DocOutput]) -> dict[str, float]:
    """Work counts for one traced pass, taken outside the timed spans."""
    c = dict.fromkeys(("layout.detections", "layout.group_links", "ordering.units",
                       "ordering.fallback_units", "dispatch.tasks", "dispatch.batches",
                       "dispatch.tokens_emitted", "dispatch.tokens_failed",
                       "consolidate.merges", "formats.chunks", "formats.structured_bytes"), 0)
    capacity = 0
    backend_caps = backend_batch_caps(backend)
    caps = {m: min(wl.engine.max_batch, cap) for m, cap in backend_caps.items()}
    for doc in wl.docs:
        out = outputs.get(doc.doc_id)
        if out is None:
            continue
        result = out.result
        for analysis in result.analyses:
            tree = analysis.tree
            c["layout.detections"] += tree.detection_count()
            c["layout.group_links"] += len(group_pairs(tree))
            c["ordering.units"] += len(analysis.units)
            units = group_cluster(tree)
            if units:
                leaves = cut_leaves(xy_cut(units, PAGE_REGION, wl.engine))
                c["ordering.fallback_units"] += sum(
                    len(leaf.unit_ids) for leaf in leaves if len(leaf.unit_ids) > 1
                )
        batches = form_batches(result.plan.tasks, wl.engine.max_batch, backend_caps)
        flow_items = build_flow_items(doc, result.analyses, result.gathered)
        c["dispatch.tasks"] += len(result.plan.tasks)
        c["dispatch.batches"] += len(batches)
        capacity += sum(caps.get(b.modality, wl.engine.max_batch) for b in batches)
        c["dispatch.tokens_emitted"] += result.parsed.tokens_emitted
        c["dispatch.tokens_failed"] += result.parsed.tokens_failed
        c["consolidate.merges"] += len(flow_items) - sum(1 for _ in result.parsed.iter_items())
        c["formats.chunks"] += len(out.chunks)
        c["formats.structured_bytes"] += len(out.structured.encode("utf-8"))
    c["ordering.fallback_share"] = (
        c["ordering.fallback_units"] / c["ordering.units"] if c["ordering.units"] else 0.0
    )
    c["dispatch.batch_fill"] = c["dispatch.tasks"] / capacity if capacity else 0.0
    return c


# ---------------------------------------------------------------------------
# Virtual clock
# ---------------------------------------------------------------------------


@dataclass
class SimPhase:
    metrics: dict  # mode -> PipelineMetrics of the first round
    efficiency: float
    # mode or "scaling" -> nominal-speed host ms, one per round
    host_ms: dict[str, list[float]]
    host_ms_per_page: list[float]  # nominal-speed, one per simulator call
    attempted: int = 0
    failed: int = 0


def sim_phase(wl, rounds: int, reference_dumps: dict[str, str], tracer,
              problems: list[str]) -> SimPhase:
    """Rounds of seq/par/pipe plus the two-point scaling sweep.

    The first round's dumps are checked against the real-clock dumps (and so
    against each other); every later round must repeat the first round's
    virtual metrics exactly. Each call's host time is scaled to nominal
    machine speed by the calibration slices run around it.
    """
    phase = SimPhase({}, 0.0, {k: [] for k in (*MODES, "scaling")}, [])
    ndocs = len(wl.docs)
    scaled_docs = ndocs * len(workloads.SCALING_WORKERS)
    last_s = 0.0

    def timed(key: str, span: str, pages: int, fn, *args):
        """Calls fn between calibration slices, so that they sample the
        machine around the call. Records its host time at nominal speed."""
        nonlocal last_s
        gc.collect()
        cal = Calibration()
        cal.run_for(last_s / 2)
        t0 = time.perf_counter()
        result = tracer.call(span, "", fn, *args) if tracer is not None else fn(*args)
        last_s = time.perf_counter() - t0
        cal.run_for(last_s / 2)
        host_ms = last_s * 1000.0 * cal.factor
        phase.host_ms[key].append(host_ms)
        phase.host_ms_per_page.append(host_ms / pages)
        return result

    for n in range(rounds):
        for mode in Mode:
            phase.attempted += ndocs
            where = f"sim {mode.value}"
            try:
                outputs, metrics = timed(mode.value, f"runtime.run_pipeline.{mode.value}",
                                         wl.pages, run_pipeline, wl.docs, wl.mode_config(mode))
            except Exception as exc:  # the whole run failed: every document in it
                problems.append(f"{where}: run_pipeline raised {type(exc).__name__}: {exc}")
                phase.failed += ndocs
                continue
            run_problems = checks.conservation(metrics.tasks_dispatched, metrics.tasks_completed,
                                               metrics.tasks_failed, where)
            if n == 0:
                phase.metrics[mode.value] = metrics
                bad = [p.doc_id for p in outputs
                       if p.failed_tasks or to_structured(p) != reference_dumps.get(p.doc_id)]
                if bad:
                    problems.append(f"{where}: {len(bad)} dumps differ from the real-clock dumps "
                                    f"or hold failed tasks, first {bad[0]}")
                phase.failed += len(bad)
            elif metrics.to_report() != phase.metrics[mode.value].to_report():
                run_problems.append(f"{where}: virtual metrics changed between rounds")
            if run_problems:
                problems += run_problems
                phase.failed += ndocs
        phase.attempted += scaled_docs
        try:
            report = timed("scaling", "runtime.simulate_scaling",
                           wl.pages * len(workloads.SCALING_WORKERS),
                           simulate_scaling, wl.docs, workloads.SCALING_WORKERS, wl.scaling)
        except Exception as exc:
            problems.append(f"simulate_scaling raised {type(exc).__name__}: {exc}")
            phase.failed += scaled_docs
        else:
            if n == 0:
                phase.efficiency = report.efficiency
            elif report.efficiency != phase.efficiency:
                problems.append("scaling efficiency changed between rounds")
                phase.failed += scaled_docs
    return phase


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def end_to_end_metrics(wl, real: RealPhase, sim: SimPhase, setup_s: float) -> dict[str, float]:
    tail_ms, _pct = tail(real.tail_samples()[0])
    pipe = sim.metrics.get("pipe")
    return {
        "pages_per_s": pages_per_s(wl, real.latencies),
        "doc_latency_p50_ms": statistics.median(real.doc_medians()),
        "doc_latency_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_seq_pps": sim.metrics["seq"].throughput_pps if "seq" in sim.metrics else 0.0,
        "sim_par_pps": sim.metrics["par"].throughput_pps if "par" in sim.metrics else 0.0,
        "sim_pipe_pps": pipe.throughput_pps if pipe else 0.0,
        "sim_scaling_efficiency": sim.efficiency,
        "sim_host_ms_per_page": statistics.median(sim.host_ms_per_page)
        if sim.host_ms_per_page else 0.0,
    }


def per_layer_metrics(wl, real: RealPhase, sim: SimPhase) -> dict[str, float]:
    out: dict[str, float] = {}
    pages = wl.pages * real.traced_passes
    self_ms = real.layer_ms
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = self_ms.get(span_name, 0.0) / pages if pages else 0.0
    out.update(real.traced_counts or {})

    for mode in MODES:
        m = sim.metrics.get(mode)
        host = sim.host_ms[mode]
        out[f"runtime.{mode}.host_ms"] = statistics.median(host) if host else 0.0
        out[f"runtime.{mode}.wall_virtual_ms"] = m.wall_ms if m else 0.0
        out[f"runtime.{mode}.tasks_dispatched"] = m.tasks_dispatched if m else 0
        out[f"runtime.{mode}.tasks_completed"] = m.tasks_completed if m else 0
        out[f"runtime.{mode}.tasks_failed"] = m.tasks_failed if m else 0
        out[f"runtime.{mode}.retries"] = m.retries if m else 0
    pipe = sim.metrics.get("pipe")
    stages = {s.stage: s for s in pipe.per_stage} if pipe else {}
    experts = {e.modality: e for e in pipe.per_expert} if pipe else {}
    for stage in STAGES:
        out[f"runtime.pipe.stage.{stage}.bubble"] = (
            stages[stage].bubble_fraction if stage in stages else 0.0
        )
    for modality in MODALITIES:
        e = experts.get(modality)
        out[f"experts.pipe.{modality}.utilization"] = e.utilization if e else 0.0
        out[f"experts.pipe.{modality}.batches"] = e.batches if e else 0
        out[f"experts.pipe.{modality}.tasks"] = e.tasks if e else 0
        out[f"experts.pipe.{modality}.retries"] = e.retries if e else 0
        out[f"dispatch.pipe.max_queue_depth.{modality}"] = (
            pipe.max_queue_depth.get(modality, 0) if pipe else 0
        )

    # Measured real cost over the simulator's modelled cost, per stage.
    eng = wl.engine
    passes = real.traced_passes
    docs = len(wl.docs) * passes
    tasks = (real.traced_counts or {}).get("dispatch.tasks", 0) * passes

    def ratio(measured_ms: float, modelled_ms: float) -> float:
        return measured_ms / modelled_ms if modelled_ms else 0.0

    ms = lambda *names: sum(self_ms.get(n, 0.0) for n in names)  # noqa: E731
    out["model.layout.measured_over_modelled"] = ratio(
        ms("layout.build_page_tree", "ordering.order_units"), eng.layout_ms_per_page * pages)
    out["model.dispatch.measured_over_modelled"] = ratio(
        ms("dispatch.plan_document", "engine.form_batches"), eng.dispatch_ms_per_task * tasks)
    out["model.gather.measured_over_modelled"] = ratio(
        ms("dispatch.gather"), eng.gather_ms_per_doc * docs + eng.gather_ms_per_task * tasks)
    out["model.consolidate.measured_over_modelled"] = ratio(
        ms("consolidate.consolidate"), eng.consolidate_ms_per_doc * docs)
    out["model.format.measured_over_modelled"] = ratio(
        ms("formats.to_structured", "formats.to_markdown", "formats.to_html", "formats.chunk"),
        eng.format_ms_per_doc * docs)
    out["trace.overhead"] = pages_per_s(wl, real.traced_latencies) / pages_per_s(wl, real.latencies)
    return out


def print_table(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted and ignored: each workload does a fixed amount of "
                             "work (workloads.WORK); run_seconds in BENCHMARK.json is the "
                             "length of its longest run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    # Set-up: import, workload generation, backend construction, each at
    # nominal machine speed; the median of several repetitions.
    setups = []
    for _ in range(SETUP_REPS):
        import_s = time_import()
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        backend = MockBackend(DocumentStore(wl.docs), wl.experts)
        build_s = time.perf_counter() - t0
        gc.collect()
        cal = Calibration()
        cal.run_for(build_s)
        setups.append(import_s + build_s * cal.factor)
    setup_s = statistics.median(setups)
    # The set-up's objects live for the whole run; keep the collector from
    # re-scanning them inside timed regions.
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    problems: list[str] = []
    passes, rounds = workloads.WORK[wl.name]
    started = time.perf_counter()
    real = real_phase(wl, backend, passes, tracer, problems)
    real_s = time.perf_counter() - started
    sim = sim_phase(wl, rounds, real.reference_dumps, tracer, problems)
    sim_s = time.perf_counter() - started - real_s

    attempted = real.attempted + sim.attempted
    failed = real.failed + sim.failed
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    e2e = end_to_end_metrics(wl, real, sim, setup_s)
    samples, what = real.tail_samples()
    _value, pct = tail(samples)
    print(f"# workload {wl.name}, seed {args.seed}: {len(wl.docs)} documents, {wl.pages} pages; "
          f"{passes} timed passes in {real_s:.1f} s, {rounds} simulator rounds in {sim_s:.1f} s")
    print_table("end to end", e2e, dict(END_TO_END))
    print(f"# doc_latency_tail_ms is p{pct:.2f} over {len(samples)} {what}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} documents failed)")
    print(f"# real-clock times are at nominal machine speed: calibration slice "
          f"{NOMINAL_SLICE_MS} ms nominal, {statistics.median(real.mean_slice_ms):.4g} ms measured "
          f"(median over passes); pages_per_s as measured "
          f"{pages_per_s(wl, real.raw_latencies):.6g}")
    pipe = sim.metrics.get("pipe")
    if pipe:
        print(f"# sim_pipe_bubble {pipe.bubble_fraction:.6g} ratio "
              f"(per-layer runtime.pipe.stage.experts.bubble)")

    if tracer is not None:
        layers = per_layer_metrics(wl, real, sim)
        print_table("per layer", layers, per_layer_units())
        pages = wl.pages * real.traced_passes
        print(f"# document spans {real.document_ms / pages:.6g} ms/page = layer self "
              f"times plus engine.glue_ms_per_page "
              f"{sum(layers[m] for m in SPAN_METRICS.values()):.6g} ms/page")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write_chrome(trace_path)
        print(f"# spans written to {trace_path}")
        values, units = layers, per_layer_units()
    else:
        values, units = e2e, dict(END_TO_END)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
