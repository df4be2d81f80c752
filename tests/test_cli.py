from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

from uniparse.cli import main
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import BoundingBox, Detection, SemanticCategory, save_document

from conftest import EchoServerThread, one_page_doc


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(out), "--docs", "3", "--seed", "5"]) == 0
    return out


def test_help_exits_zero_for_every_subcommand(capsys):
    for cmd in ("parse", "simulate", "bench", "gen-corpus", "eval", "serve-echo"):
        assert main([cmd, "--help"]) == 0
        assert cmd in capsys.readouterr().out
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_usage_error_exits_64(capsys):
    assert main(["parse"]) == 64  # missing input
    assert main(["frobnicate"]) == 64  # unknown subcommand
    assert main(["simulate", "--mode", "warp"]) == 64
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "missing.ir.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_markdown_to_file(corpus_dir, tmp_path, capsys):
    out = tmp_path / "d000.md"
    code = main(["parse", str(corpus_dir / "d000.ir.json"), "--format", "markdown",
                 "--out", str(out)])
    assert code == 0
    assert out.exists() and out.read_text(encoding="utf-8").strip()
    capsys.readouterr()


def test_parse_structured_stdout(corpus_dir, capsys):
    assert main(["parse", str(corpus_dir / "d000.ir.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["doc_id"] == "d000"


def test_parse_emit_order_lines(corpus_dir, capsys):
    assert main(["parse", str(corpus_dir / "d000.ir.json"), "--emit", "order"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# page 0")
    assert re.search(r"^d000p0b\d+$", out, re.MULTILINE)


def test_parse_orders_a_page_cut_once_per_line(tmp_path, capsys):
    # Equal gaps between 1,500 full-width lines: each cut splits off the top
    # line, so the cut tree is 1,500 levels deep. A small min_gap lets every
    # gap count; the default bounds the depth to about 1 / min_gap.
    lines = [Detection(f"p{i:05d}", 0, BoundingBox(0.1, i / 2048, 0.9, i / 2048 + 1 / 4096),
                       SemanticCategory.PARAGRAPH, 0.9, truth_text=f"line {i}")
             for i in range(1500)]
    ir = tmp_path / "lines.ir.json"
    save_document(one_page_doc(lines, doc_id="lines"), ir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_gap": 0.0001}), encoding="utf-8")
    assert main(["parse", str(ir), "--config", str(config), "--emit", "order"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["# page 0", *(d.id for d in lines)]


def test_parse_emit_layout(corpus_dir, capsys):
    assert main(["parse", str(corpus_dir / "d000.ir.json"), "--emit", "layout"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "pages" in data and data["pages"][0]["roots"]


def test_only_modality_leaves_other_payloads_unresolved(corpus_dir, tmp_path, capsys):
    out = tmp_path / "dump.json"
    # pick a doc that contains at least one molecule
    chosen = None
    for ir in sorted(corpus_dir.glob("*.ir.json")):
        if '"molecule"' in ir.read_text(encoding="utf-8"):
            chosen = ir
            break
    assert chosen is not None
    assert main(["parse", str(chosen), "--only-modality", "ocsr", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))

    payloads = {}

    def walk(section):
        for it in section["body"]:
            payloads[it["id"]] = (it["category"], it["payload"])
            for p in it["partners"]:
                payloads[p["id"]] = (p["category"], p["payload"])
        for child in section["children"]:
            walk(child)

    walk(data["root"])
    kinds = {cat for cat, payload in payloads.values() if payload is not None}
    assert kinds <= {"molecule"}
    capsys.readouterr()


def test_gen_corpus_eval_roundtrip(corpus_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    for ir in sorted(corpus_dir.glob("*.ir.json")):
        doc_id = ir.name[: -len(".ir.json")]
        assert main(["parse", str(ir), "--emit", "order",
                     "--out", str(pred / f"{doc_id}.pred.json")]) == 0
    assert main(["eval", "--pred", str(pred), "--truth", str(corpus_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_order_edit_distance"] == 0.0
    assert report["grouping"]["f1"] == 1.0


def test_eval_missing_prediction_exits_1(corpus_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--pred", str(empty), "--truth", str(corpus_dir)]) == 1
    capsys.readouterr()


def test_simulate_deterministic(capsys):
    args = ["simulate", "--mode", "pipe", "--workers", "4", "--seed", "1", "--docs", "5",
            "--report", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "throughput_pps" in json.loads(first)


def test_simulate_scaling_report(capsys):
    assert main(["simulate", "--docs", "6", "--seed", "2", "--scaling", "1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["workers"] for p in report["points"]] == [1, 2]
    assert "r_squared" in report


def test_bench_compare_modes_table(capsys):
    assert main(["bench", "--docs", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if re.match(r"\s*(seq|par|pipe)\b", line)]
    assert len(rows) == 3


@pytest.mark.parametrize("args, field", [
    (["simulate", "--workers", "0"], "workers"),
    (["simulate", "--workers", "-2"], "workers"),
    (["bench", "--workers", "0"], "workers"),
    (["simulate", "--scaling", "0,2"], "workers"),
])
def test_degenerate_runtime_count_exits_1(args, field, capsys):
    assert main([*args, "--docs", "2", "--seed", "1"]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    pytest.param('{"queue_capacity": 0}', "queue_capacity", id="queue_capacity"),
    pytest.param('{"max_in_flight_docs": 0}', "max_in_flight_docs", id="max_in_flight_docs"),
    pytest.param('{"layout_ms_per_page": 1e999}', "layout_ms_per_page", id="cost-inf"),
    pytest.param('{"layout_ms_per_page": NaN}', "layout_ms_per_page", id="cost-nan"),
    pytest.param('{"layout_ms_per_page": -1000}', "layout_ms_per_page", id="cost-negative"),
    pytest.param('{"max_batch": 0}', "max_batch", id="max_batch-0"),
    pytest.param('{"max_batch": 2.5}', "max_batch", id="max_batch-float"),
    pytest.param('{"max_batch": true}', "max_batch", id="max_batch-bool"),
    pytest.param('{"min_gap": "x"}', "min_gap", id="min_gap-str"),
    pytest.param('{"terminal_punctuation": 5}', "terminal_punctuation", id="punctuation-int"),
    pytest.param('{"backoff_ms": -50}', "backoff_ms", id="backoff-negative"),
    pytest.param('{"max_retries": -1}', "max_retries", id="retries-negative"),
])
def test_degenerate_runtime_count_in_config_exits_1(text, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--docs", "3", "--seed", "1", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"max_batch": 0}', '{"min_gap": "x"}'])
def test_parse_refuses_a_bad_config_value(text, corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["parse", str(corpus_dir / "d000.ir.json"), "--config", str(cfg)]) == 1
    assert json.loads(text).popitem()[0] in capsys.readouterr().err


def test_unknown_only_modality_is_a_usage_error(corpus_dir, capsys):
    args = ["parse", str(corpus_dir / "d000.ir.json"), "--only-modality"]
    assert main([*args, "formulas"]) == 64
    assert "formulas" in capsys.readouterr().err
    assert main([*args, "formula"]) == 0
    capsys.readouterr()


def test_unknown_config_key_exits_1(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"min_gap": 0.02, "bogus_key": 1}', encoding="utf-8")
    assert main(["parse", str(corpus_dir / "d000.ir.json"), "--config", str(cfg)]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_config_env_var_fallback(tmp_path, corpus_dir, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_batch": 4}', encoding="utf-8")
    monkeypatch.setenv("UNIPARSE_CONFIG", str(cfg))
    assert main(["parse", str(corpus_dir / "d000.ir.json")]) == 0
    capsys.readouterr()


def test_parse_builds_one_remote_backend_per_call(corpus_dir, tmp_path, monkeypatch, capsys):
    import uniparse.cli
    from uniparse.docmodel import load_document
    from uniparse.experts import RemoteBackend

    built = []

    class CountingBackend(RemoteBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(uniparse.cli, "RemoteBackend", CountingBackend)
    inputs = [str(p) for p in sorted(corpus_dir.glob("*.ir.json"))]
    assert len(inputs) == 3
    docs = [load_document(p) for p in inputs]
    with EchoServerThread(docs) as srv:
        assert main(["parse", *inputs, "--expert-endpoint", srv.endpoint,
                     "--out", str(tmp_path / "remote")]) == 0
    assert main(["parse", *inputs, "--out", str(tmp_path / "mock")]) == 0
    assert len(built) == 1
    remote = _files(tmp_path / "remote")
    assert len(remote) == 3 and remote == _files(tmp_path / "mock")
    capsys.readouterr()


def test_parse_sends_every_modality_over_one_session(corpus_dir, tmp_path, monkeypatch, capsys):
    import uniparse.experts
    from uniparse.docmodel import load_document

    sessions, urls, closed = [], [], []

    class CountingSession(uniparse.experts.requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

        def post(self, url, *args, **kwargs):
            urls.append(url)
            return super().post(url, *args, **kwargs)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(uniparse.experts.requests, "Session", CountingSession)
    inputs = [str(p) for p in sorted(corpus_dir.glob("*.ir.json"))]
    assert len(inputs) == 3
    docs = [load_document(p) for p in inputs]
    with EchoServerThread(docs) as srv:
        assert main(["parse", *inputs, "--expert-endpoint", srv.endpoint,
                     "--out", str(tmp_path / "remote")]) == 0
    assert main(["parse", *inputs, "--out", str(tmp_path / "mock")]) == 0
    assert len(sessions) == 1 and closed == sessions
    assert len({url.rsplit("/", 1)[1] for url in urls}) > 1  # several modalities
    remote = _files(tmp_path / "remote")
    assert len(remote) == 3 and remote == _files(tmp_path / "mock")
    capsys.readouterr()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_serve_echo_subprocess_round_trip(corpus_dir, tmp_path):
    with subprocess.Popen(
        [sys.executable, "-m", "uniparse.cli", "serve-echo", "--port", "0",
         "--ir", str(corpus_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            match = re.search(r"on (http://[\d.]+:\d+)", line)
            assert match, line
            endpoint = match.group(1)
            from uniparse.docmodel import load_document
            from uniparse.engine import process_document
            from uniparse.experts import DocumentStore, MockBackend, RemoteBackend
            from uniparse.formats import to_structured

            doc = load_document(corpus_dir / "d000.ir.json")
            docs = [load_document(p) for p in sorted(corpus_dir.glob("*.ir.json"))]
            with closing(RemoteBackend(endpoint)) as backend:
                remote = process_document(doc, backend=backend)
            local = process_document(doc, backend=MockBackend(DocumentStore(docs)))
            assert to_structured(remote.parsed) == to_structured(local.parsed)

            # The server was started without --config: a client config that
            # plans other placeholders must still parse as the mocks do.
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"ioa_threshold": 1.01}', encoding="utf-8")
            inputs = [str(p) for p in sorted(corpus_dir.glob("*.ir.json"))]
            common = ["parse", *inputs, "--config", str(cfg)]
            assert main([*common, "--expert-endpoint", endpoint,
                         "--out", str(tmp_path / "remote")]) == 0
            assert main([*common, "--out", str(tmp_path / "mock")]) == 0
            assert _files(tmp_path / "remote") == _files(tmp_path / "mock")
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
