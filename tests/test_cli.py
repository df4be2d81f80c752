from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import closing
from hashlib import sha256
from pathlib import Path

import pytest

from uniparse.cli import main
from uniparse.config import ENV_CONFIG_VAR, EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import (
    BoundingBox,
    Detection,
    SemanticCategory,
    document_to_dict,
    save_document,
)

from conftest import EchoServerThread, deeply_nested, one_page_doc

SRC = Path(__file__).resolve().parents[1] / "src"


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
    missing = tmp_path / "missing.ir.json"
    assert main(["parse", str(missing)]) == 1
    assert capsys.readouterr().err == f"uniparse: error: {missing}: no such file\n"


def _bad_middle_input(corpus_dir: Path) -> list[str]:
    """d000, an IR file of the wrong version, d002."""
    bad = corpus_dir / "bad.ir.json"
    bad.write_text('{"version": "0"}', encoding="utf-8")
    return [str(corpus_dir / "d000.ir.json"), str(bad), str(corpus_dir / "d002.ir.json")]


def test_parse_goes_on_past_an_input_that_fails_to_load(corpus_dir, tmp_path, capsys):
    inputs = _bad_middle_input(corpus_dir)
    assert main(["parse", *inputs, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{inputs[1]}: version" in err
    assert sorted(_files(tmp_path / "out")) == ["d000.structured.json", "d002.structured.json"]


def test_parse_load_failure_wins_over_a_strict_failure(corpus_dir, tmp_path, monkeypatch,
                                                       capsys):
    import uniparse.engine
    from uniparse.experts import FatalExpertError, MockBackend

    class FailingD000(MockBackend):
        def process(self, modality, batch, attempt=0):
            if any(task.doc_id == "d000" for task in batch):
                raise FatalExpertError("injected")
            return MockBackend.process(self, modality, batch, attempt)

    monkeypatch.setattr(uniparse.engine, "MockBackend", FailingD000)
    inputs = _bad_middle_input(corpus_dir)
    assert main(["parse", inputs[0], inputs[2], "--strict", "--out", str(tmp_path / "a")]) == 2
    assert main(["parse", *inputs, "--strict", "--out", str(tmp_path / "b")]) == 1
    assert main(["parse", *reversed(inputs), "--strict", "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.count("strict mode: ") == 3 and err.count(f"{inputs[1]}: version") == 2
    for out in ("a", "b", "c"):
        assert sorted(_files(tmp_path / out)) == ["d002.structured.json"]


@pytest.mark.parametrize("doc_id", [
    pytest.param("../escaped", id="parent"), pytest.param("/tmp/absolute", id="absolute"),
    pytest.param(".hidden", id="hidden"), pytest.param("..", id="dot-dot"),
    pytest.param("a\\b", id="backslash"), pytest.param("nul\0id", id="nul"),
    pytest.param("x" * 201, id="201-bytes"), pytest.param("\ud800", id="lone-surrogate"),
])
def test_parse_refuses_a_doc_id_that_cannot_name_an_output(doc_id, corpus_dir, tmp_path,
                                                           capsys):
    # An id of "../escaped" once wrote out/escaped.structured.json from --out
    # out/sub, and exited 0.
    bad = tmp_path / "bad.ir.json"
    # ASCII JSON, which can carry a lone surrogate
    bad.write_text(json.dumps(document_to_dict(one_page_doc([], doc_id=doc_id))), encoding="utf-8")
    good = str(corpus_dir / "d000.ir.json")
    out = tmp_path / "out" / "sub"
    assert main(["parse", str(bad), good, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uniparse: error: {bad}: doc_id ") and err.count("\n") == 1
    assert sorted(_files(out)) == ["d000.structured.json"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sub"]


def test_parse_keeps_the_first_output_of_a_repeated_doc_id(corpus_dir, tmp_path, capsys):
    # A second input with d000's id once replaced d000's output, and exited 0.
    twin = tmp_path / "twin.ir.json"
    data = json.loads((corpus_dir / "d001.ir.json").read_text(encoding="utf-8"))
    twin.write_text(json.dumps({**data, "doc_id": "d000"}), encoding="utf-8")
    first = str(corpus_dir / "d000.ir.json")
    assert main(["parse", first, str(twin), str(corpus_dir / "d002.ir.json"),
                 "--out", str(tmp_path / "both")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uniparse: error: {twin}: doc_id 'd000' repeats") and err.count("\n") == 1
    assert main(["parse", first, str(corpus_dir / "d002.ir.json"),
                 "--out", str(tmp_path / "alone")]) == 0
    assert _files(tmp_path / "both") == _files(tmp_path / "alone")


def test_an_interrupted_parse_leaves_each_output_whole(corpus_dir, tmp_path, monkeypatch):
    # A run killed while it wrote an output once left that output cut short.
    out = tmp_path / "out"
    inputs = [str(corpus_dir / f"d00{k}.ir.json") for k in range(3)]
    assert main(["parse", *inputs, "--out", str(out)]) == 0
    before = _files(out)
    write_text = Path.write_text

    def killed_halfway(self, data, *args, **kwargs):
        write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_text", killed_halfway)
    with pytest.raises(KeyboardInterrupt):
        main(["parse", *inputs[1:], "--out", str(out)])
    monkeypatch.undo()
    assert _files(out) == before


@pytest.mark.parametrize("emit, ext", [([], "structured.json"), (["--emit", "layout"], "layout.json"),
                                       (["--emit", "order"], "pred.json")],
                         ids=["structured", "layout", "order"])
def test_a_failed_output_write_names_its_input_and_the_run_goes_on(emit, ext, corpus_dir,
                                                                    tmp_path, monkeypatch, capsys):
    # A full disk on the first output once ended the run with one error line
    # that named no input, and wrote none of the three outputs.
    out = tmp_path / "out"
    inputs = [str(corpus_dir / f"d00{k}.ir.json") for k in range(3)]
    write_text = Path.write_text
    calls = []

    def full_once(self, data, *args, **kwargs):
        calls.append(self)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_once)
    assert main(["parse", *inputs, *emit, "--out", str(out)]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == f"uniparse: error: {inputs[0]}: No space left on device\n"
    assert sorted(_files(out)) == [f"d001.{ext}", f"d002.{ext}"]


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


# sha256 of the files `gen-corpus --seed 0 --docs 3` writes (IR and truth, in
# name order, concatenated) and of `parse --emit layout` and `--emit order` on
# d000, as recorded while canonical_json still had its own encoder.
CLI_CORPUS_DIGEST = "98f6b05b6936fa96f9283d5fe6022bf5fce378197e80b3039d6c82f27043628e"
CLI_LAYOUT_DIGEST = "c3a550b5813091704c55435913c872b2a411bece8637d70d6fc5d4245c49ab0d"
CLI_ORDER_DIGEST = "2c50192226a47afbba8803cd580390a2d255c065f189d6040811bd8cb7e7d9b8"


def test_cli_canonical_files_are_unchanged(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--docs", "3", "--seed", "0"]) == 0
    files = sorted(corpus.iterdir())
    assert [f.name for f in files] == [f"d00{i}.{kind}.json" for i in range(3)
                                       for kind in ("ir", "truth")]
    assert sha256(b"".join(f.read_bytes() for f in files)).hexdigest() == CLI_CORPUS_DIGEST
    for emit, pinned in (("layout", CLI_LAYOUT_DIGEST), ("order", CLI_ORDER_DIGEST)):
        out = tmp_path / f"d000.{emit}.json"
        assert main(["parse", str(corpus / "d000.ir.json"), "--emit", emit,
                     "--out", str(out)]) == 0
        assert sha256(out.read_bytes()).hexdigest() == pinned
    capsys.readouterr()


def test_eval_missing_prediction_exits_1(corpus_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--pred", str(empty), "--truth", str(corpus_dir)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("side", ["pred", "truth"])
@pytest.mark.parametrize("text", [
    pytest.param("{}", id="empty-object"),
    pytest.param("[]", id="array"),
    pytest.param('{"pages": [{"page_index": 0, "groups": []}]}', id="page-without-order"),
    pytest.param('{"pages": 5}', id="pages-int"),
    pytest.param(deeply_nested(), id="nested"),
])
def test_eval_reports_a_malformed_file_in_one_line(text, side, corpus_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    for doc_id in ("d000", "d001", "d002"):
        assert main(["parse", str(corpus_dir / f"{doc_id}.ir.json"), "--emit", "order",
                     "--out", str(pred / f"{doc_id}.pred.json")]) == 0
    bad = (pred if side == "pred" else corpus_dir) / f"d001.{side}.json"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred), "--truth", str(corpus_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"uniparse: error: {bad}: ") and err.count("\n") == 1


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
    assert out.split()[:2] == ["mode", "workers"]
    assert [row.split()[1] for row in rows] == ["1", "4", "4"]


# sha256 of the stdout of each runtime report command. The scaling pin was
# recorded before the reports were derived from their metrics records; the
# other four, which carry a pipe run, were re-recorded when a batch an expert
# starts below its size began to take its modality's queued tasks.
CLI_REPORT_DIGESTS = {
    ("simulate", "--docs", "6", "--seed", "2", "--report", "json"):
        "20e26bfd835b461e0a408cab56494e06fa0efd4f8cfefd31f87875feb73d1fc7",
    ("simulate", "--docs", "6", "--seed", "2", "--report", "text"):
        "e9458cd31c1119ded6161d6aa40ef94a68f9136d091245c57c44d6bf78b11c33",
    ("simulate", "--docs", "6", "--seed", "2", "--scaling", "1,2", "--report", "json"):
        "c0d50674ea7f68e33e3da6a48c79ed1e180e85c4ccc78424c9d4200ffc85ea22",
    ("bench", "--docs", "6", "--seed", "3", "--report", "json"):
        "77c6910ee23756ff271a8a1be621d1951152576b563da38cd7b6c5f57cd8f290",
    ("bench", "--docs", "6", "--seed", "3"):
        "9c69f8c20e46d70f8ba671e325d240ea06a1204d30e5bb7da7fd7d35c5dfcd5a",
}


@pytest.mark.parametrize("args", list(CLI_REPORT_DIGESTS), ids=" ".join)
def test_cli_report_bytes_are_unchanged(args, capsys):
    assert main(list(args)) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode("utf-8")).hexdigest() == CLI_REPORT_DIGESTS[args]


def test_parse_takes_no_seed(corpus_dir, capsys):
    assert main(["parse", str(corpus_dir / "d000.ir.json"), "--seed", "7"]) == 64
    capsys.readouterr()


def _simulated_workers(capsys, *args) -> int:
    assert main(["simulate", "--docs", "2", "--seed", "1", *args]) == 0
    return json.loads(capsys.readouterr().out)["workers"]


def test_simulate_takes_workers_from_the_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "w2.json"
    cfg.write_text('{"workers": 2}', encoding="utf-8")
    assert _simulated_workers(capsys) == 4
    assert _simulated_workers(capsys, "--config", str(cfg)) == 2
    assert _simulated_workers(capsys, "--config", str(cfg), "--workers", "3") == 3
    monkeypatch.setenv("UNIPARSE_CONFIG", str(cfg))
    assert _simulated_workers(capsys) == 2
    assert _simulated_workers(capsys, "--workers", "3") == 3


def test_bench_takes_workers_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "w2.json"
    cfg.write_text('{"workers": 2}', encoding="utf-8")

    def workers(*args) -> list[int]:
        assert main(["bench", "--docs", "6", "--seed", "3", "--report", "json", *args]) == 0
        return [row["workers"] for row in json.loads(capsys.readouterr().out)["modes"]]

    assert workers() == [1, 4, 4]  # seq runs one expert worker
    assert workers("--config", str(cfg)) == [1, 2, 2]
    assert workers("--config", str(cfg), "--workers", "3") == [1, 3, 3]


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
    pytest.param(deeply_nested(200_000), "cfg.json", id="nested-200000"),
    pytest.param("[]", "cfg.json: must be a JSON object", id="array"),
    pytest.param('{"max_wait_ms": 1' + "0" * 400 + "}", "max_wait_ms must be finite",
                 id="wait-int-too-large"),
])
def test_degenerate_runtime_count_in_config_exits_1(text, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--docs", "3", "--seed", "1", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "0.0", "-0.5"])
def test_a_non_positive_v_overlap_in_config_exits_1(value, tmp_path, capsys):
    cfg = tmp_path / "f.json"
    cfg.write_text(f'{{"v_overlap": {value}}}', encoding="utf-8")
    assert main(["simulate", "--docs", "2", "--seed", "1", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("uniparse: error: v_overlap") and captured.err.count("\n") == 1
    assert not captured.out


@pytest.mark.parametrize("via", ["flag", "env"])
def test_a_config_field_error_names_its_file(via, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"v_overlap": 0}', encoding="utf-8")
    if via == "flag":
        args = ["simulate", "--docs", "2", "--config", str(cfg)]
    else:
        monkeypatch.setenv(ENV_CONFIG_VAR, str(cfg))
        args = ["bench", "--docs", "2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"uniparse: error: v_overlap must be positive, got 0 (in {cfg})\n"


@pytest.mark.parametrize("command, text, start", [
    pytest.param("simulate", '{"max_wait_ms": "' + "x" * 3000 + '"}',
                 "max_wait_ms must be float, got ", id="config-long-str"),
    pytest.param("simulate", '{"workers": -' + "9" * 400 + "}",
                 "workers must be at least 1, got ", id="config-long-int"),
    pytest.param("gen-corpus", '{"seed": "' + "x" * 3000 + '"}',
                 "seed must be int, got ", id="spec-long-str"),
])
def test_a_refused_field_value_is_shown_bounded(command, text, start, tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(text, encoding="utf-8")
    if command == "simulate":
        args = ["simulate", "--docs", "2", "--config", str(path)]
    else:
        args = ["gen-corpus", "--spec", str(path), "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert start in err and err.count("\n") == 1
    assert len(err) < 120 + len(str(path))


@pytest.mark.parametrize("text, field", [
    pytest.param('{"n_docs": "3"}', "n_docs", id="n_docs-str"),
    pytest.param("[]", "spec.json", id="array"),
    pytest.param('{"seed": 1, "bogus": 2}', "bogus", id="unknown-key"),
    pytest.param('{"columns": 2.0}', "columns", id="columns-float"),
    pytest.param(deeply_nested(200_000), "spec.json", id="nested-200000"),
    pytest.param('{"modality_mix": {"bogus": 1.0}, "n_docs": 1}', "bogus", id="mix-unknown-kind"),
    pytest.param('{"modality_mix": {"paragraph": 0, "table": 0.0}}', "modality_mix",
                 id="mix-zero-sum"),
    pytest.param('{"modality_mix": {"paragraph": Infinity}}', "modality_mix", id="mix-infinite"),
    pytest.param('{"modality_mix": {"paragraph": 1e308, "table": 1e308}}', "modality_mix",
                 id="mix-sum-overflows"),
    pytest.param('{"modality_mix": {"paragraph": 1' + "0" * 400 + "}}", "modality_mix",
                 id="mix-int-too-large"),
    pytest.param('{"modality_mix": {"paragraph": 1' + "0" * 308 + ', "table": 1' + "0" * 308
                 + "}}", "modality_mix", id="mix-int-sum-overflows"),
    pytest.param('{"jitter_sigma": NaN}', "jitter_sigma", id="jitter-nan"),
    pytest.param('{"jitter_sigma": 1e999}', "jitter_sigma", id="jitter-inf"),
])
def test_bad_corpus_spec_exits_1(text, field, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    assert main(["gen-corpus", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uniparse: error: {spec}: ") and err.count("\n") == 1
    assert field in err


# JSON values each field annotation excludes: a string, null, a list, true
# for a number and a fraction for an integer
_EXCLUDED = {
    "float": ['"1"', "null", "[1]", "true"],
    "int": ['"1"', "null", "[1]", "true", "1.5"],
    "bool": ['"false"', "null", "[1]", "0"],
    "str": ["null", "[1]", "5", "true"],
    "bool | None": ['"false"', "[1]", "0"],
    "dict[str, float]": ['"x"', "null", "[1]", "true"],
}
_RECORD_FIELDS = [
    pytest.param(command, f, id=f"{command}-{f.name}")
    for command, record in (("simulate", EngineConfig), ("gen-corpus", CorpusSpec))
    for f in dataclasses.fields(record)]


@pytest.mark.parametrize("command, field", _RECORD_FIELDS)
def test_a_record_file_value_its_annotation_excludes_exits_1(command, field, tmp_path, capsys):
    path, out = tmp_path / "record.json", tmp_path / "out"
    if command == "simulate":
        args, start = ["simulate", "--docs", "2", "--config", str(path)], "uniparse: error: "
    else:
        args = ["gen-corpus", "--spec", str(path), "--out", str(out)]
        start = f"uniparse: error: {path}: "
    for value in _EXCLUDED[field.type]:
        path.write_text(f'{{"{field.name}": {value}}}', encoding="utf-8")
        assert main(args) == 1, value
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{start}{field.name} must be {field.type}, got ")
        assert captured.err.count("\n") == 1 and not captured.out and not out.exists()


@pytest.mark.parametrize("jitter", ["nan", "inf", "-0.1"])
def test_bad_jitter_flag_exits_1(jitter, tmp_path, capsys):
    args = ["gen-corpus", "--out", str(tmp_path / "out"), "--docs", "1", "--jitter", jitter]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("uniparse: error: jitter_sigma") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    import requests

    from uniparse.docmodel import load_document

    sessions, urls, closed = [], [], []

    class CountingSession(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

        def post(self, url, *args, **kwargs):
            urls.append(url)
            return super().post(url, *args, **kwargs)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(requests, "Session", CountingSession)
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


def _fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A new interpreter with this checkout's src/ as its only extra path and
    env added to its environment."""
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_uniparse_runs_the_cli():
    proc = _fresh_python("-m", "uniparse", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "gen-corpus" in proc.stdout


def test_http_stack_is_imported_only_by_a_remote_backend():
    proc = _fresh_python("-c", (
        "import sys\n"
        "import uniparse, uniparse.engine, uniparse.runtime, uniparse.cli\n"
        "print(sorted({'requests', 'urllib3', 'http.client'} & set(sys.modules)))\n"
        "from uniparse.experts import RemoteBackend\n"
        "RemoteBackend('http://127.0.0.1:9').close()\n"
        "print('requests' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    assert main(["gen-corpus", "--out", str(tmp_path), "--docs", "1", "--seed", "3"]) == 0
    ir = str(tmp_path / "d000.ir.json")
    commands = [
        ("simulate", "--docs", "6", "--mode", "pipe", "--report", "json"),
        ("simulate", "--docs", "6", "--mode", "seq", "--report", "json"),
        ("simulate", "--docs", "6", "--scaling", "1,4", "--report", "json"),
        ("bench", "--docs", "6", "--report", "json"),
        ("parse", ir, "--format", "structured"),
        ("parse", ir, "--format", "html"),
        ("parse", ir, "--format", "chunks"),
    ]
    stdout = {}
    for seed in ("0", "1"):
        for command in commands:
            proc = _fresh_python("-m", "uniparse", *command, PYTHONHASHSEED=seed)
            assert proc.returncode == 0 and proc.stdout, (command, proc.stderr)
            stdout[seed, command] = proc.stdout
    for command in commands:
        assert stdout["0", command] == stdout["1", command], command
