"""Command-line entry point: parse, simulate, bench, gen-corpus, eval,
serve-echo.

Exit codes: 0 success, 1 operational error, 2 strict-mode failures,
64 usage errors. All randomness flows from --seed (gen-corpus, simulate,
bench); parse is deterministic.

parse goes on past an input that fails, to the last one. An input that fails
to load, or whose doc_id cannot name its output under --out (see
_output_name_fault), is reported on stderr with its path; one that fails in
strict mode is reported and gives 2. When both happen, 1 wins: it says that
some input was not parsed at all. Every output file is written whole or not
at all: to a temporary file beside it, then moved into place.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .config import ENV_CONFIG_VAR, EngineConfig, read_fields
from .docmodel import (
    DocumentIR,
    SchemaViolation,
    canonical_json,
    load_document,
    save_document,
)
from .engine import StrictModeFailure, analyze_pages, page_trees, process_document
from .experts import MODALITIES, ExpertError, RemoteBackend
from .formats import chunk, chunks_to_jsonl, to_html, to_markdown, to_structured
from .layout import group_pairs, tree_to_dict
from .payloads import DECODE_ERRORS
from .runtime import (
    Mode,
    PipelineConfig,
    compare_modes,
    contention_free_config,
    run_pipeline,
    simulate_scaling,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uniparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="parse IR documents into structured output")
    p.add_argument("inputs", nargs="+", help="IR file(s)")
    p.add_argument("--format", dest="fmt", default="structured",
                   choices=("structured", "markdown", "html", "chunks"))
    p.add_argument("--emit", choices=("layout", "order"), default=None,
                   help="emit intermediate layout trees or reading order instead")
    p.add_argument("--out", default=None,
                   help="output file (or directory with several inputs)")
    p.add_argument("--only-modality", default=None, choices=MODALITIES,
                   help="restrict parsing to one modality; others become stubs")
    p.add_argument("--expert-endpoint", default=None,
                   help="base URL of a remote expert service (default: mocks)")
    p.add_argument("--max-tokens", type=int, default=512, help="chunk budget")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--config", default=None, help=f"config file (or ${ENV_CONFIG_VAR})")

    s = sub.add_parser("simulate", help="run the pipeline simulator on a synthetic workload")
    s.add_argument("--mode", choices=("seq", "par", "pipe"), default="pipe")
    s.add_argument("--workers", type=int, default=None,
                   help="expert workers (default: the config's, 4 unless set)")
    s.add_argument("--docs", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--scaling", default=None,
                   help="comma-separated worker counts, e.g. 1,2,4,8")
    s.add_argument("--report", choices=("json", "text"), default="json")
    s.add_argument("--config", default=None)

    b = sub.add_parser("bench", help="compare the three pipeline modes")
    b.add_argument("--docs", type=int, default=50)
    b.add_argument("--workers", type=int, default=None,
                   help="expert workers (default: the config's, 4 unless set)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--report", choices=("json", "text"), default="text")
    b.add_argument("--config", default=None)

    g = sub.add_parser("gen-corpus", help="generate a synthetic IR corpus with ground truth")
    g.add_argument("--spec", default=None, help="corpus spec JSON file")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--docs", type=int, default=10)
    g.add_argument("--pages-min", type=int, default=1)
    g.add_argument("--pages-max", type=int, default=3)
    g.add_argument("--columns", type=int, default=2)
    g.add_argument("--jitter", type=float, default=0.0)
    g.add_argument("--merge-prob", type=float, default=0.0)
    g.add_argument("--substitution-prob", type=float, default=0.0)
    g.add_argument("--split-prob", type=float, default=0.0)
    g.add_argument("--no-hints", action="store_true")

    e = sub.add_parser("eval", help="score predictions against ground truth")
    e.add_argument("--pred", required=True, help="directory of *.pred.json files")
    e.add_argument("--truth", required=True, help="directory of *.truth.json files")
    e.add_argument("--report", choices=("json", "text"), default="json")

    v = sub.add_parser("serve-echo", help="serve the expert wire schema from mock experts")
    v.add_argument("--port", type=int, default=0)
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--ir", nargs="+", required=True, help="IR files or directories")

    return parser


def _workload(seed: int, n_docs: int) -> list[DocumentIR]:
    spec = corpus_mod.CorpusSpec(seed=seed, n_docs=n_docs, pages_min=1, pages_max=3)
    docs, _truth = corpus_mod.gen_corpus(spec)
    return docs


def _emit_order_record(doc: DocumentIR, cfg: EngineConfig) -> dict:
    analyses = analyze_pages(doc, cfg)
    pages = []
    for analysis in analyses:
        pages.append(
            {
                "page_index": analysis.tree.page_index,
                "order": [u.unit_id for u in analysis.units],
                "groups": sorted(sorted(pair) for pair in group_pairs(analysis.tree)),
            }
        )
    return {"doc_id": doc.doc_id, "pages": pages}


def cmd_parse(args) -> int:
    cfg = EngineConfig.from_env_or_default(args.config)
    multi = len(args.inputs) > 1
    out_dir: Path | None = None
    if multi:
        if not args.out:
            print("parse: --out directory required with several inputs", file=sys.stderr)
            return USAGE_EXIT
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    remote = RemoteBackend(args.expert_endpoint) if args.expert_endpoint else None
    try:
        return _parse_inputs(args, cfg, out_dir, remote)
    finally:
        if remote is not None:
            remote.close()


def _parse_inputs(args, cfg: EngineConfig, out_dir: Path | None,
                  remote: RemoteBackend | None) -> int:
    exit_code = 0
    taken: set[str] = set()  # doc_ids of the earlier inputs under out_dir
    for input_path in args.inputs:
        try:
            doc = load_document(input_path)
        except (OSError, SchemaViolation, ValueError) as exc:
            reason = "no such file" if isinstance(exc, FileNotFoundError) else exc
            print(f"uniparse: error: {input_path}: {reason}", file=sys.stderr)
            exit_code = 1
            continue
        if out_dir is not None:
            reason = _output_name_fault(doc.doc_id, taken)
            if reason is not None:
                print(f"uniparse: error: {input_path}: {reason}", file=sys.stderr)
                exit_code = 1
                continue
            taken.add(doc.doc_id)
        if args.emit == "layout":
            payload, ext = canonical_json(
                {"doc_id": doc.doc_id, "pages": list(map(tree_to_dict, page_trees(doc, cfg)))}
            ), "layout.json"
        elif args.emit == "order":
            record = _emit_order_record(doc, cfg)
            if not args.out:
                for page in record["pages"]:
                    print(f"# page {page['page_index']}")
                    for unit_id in page["order"]:
                        print(unit_id)
                continue
            payload, ext = canonical_json(record), "pred.json"
        else:
            try:
                result = process_document(
                    doc, cfg, remote, only_modality=args.only_modality, strict=args.strict
                )
            except StrictModeFailure as exc:
                print(f"strict mode: {exc}", file=sys.stderr)
                exit_code = exit_code or 2
                continue
            parsed = result.parsed
            if args.fmt == "structured":
                payload, ext = to_structured(parsed), "structured.json"
            elif args.fmt == "markdown":
                payload, ext = to_markdown(parsed), "md"
            elif args.fmt == "html":
                payload, ext = to_html(parsed), "html"
            else:
                payload, ext = chunks_to_jsonl(chunk(parsed, args.max_tokens)), "chunks.jsonl"
        try:
            _write_output(payload, args, out_dir, doc.doc_id, ext)
        except OSError as exc:  # the id stays taken, as after a written output
            print(f"uniparse: error: {input_path}: {exc.strerror or exc}", file=sys.stderr)
            exit_code = 1
    return exit_code


# The longest doc_id, in UTF-8 bytes, that names an output file: with the
# longest extension (".structured.json") the name stays within the 255 bytes
# common file systems allow.
MAX_OUTPUT_ID_BYTES = 200


def _output_name_fault(doc_id: str, taken: set[str]) -> str | None:
    """Why doc_id cannot name an output file under --out, or None. The name
    stays in its directory: it is non-empty, bounded, encodable, holds no
    path separator or NUL, and does not start with '.' (no '..', and no
    hidden or temporary file). An id an earlier input of this call took
    would replace that output, so it is refused too."""
    if not doc_id:
        return "doc_id is empty"
    if doc_id.startswith("."):
        return f"doc_id {doc_id!r} starts with '.'"
    if any(c in doc_id for c in "/\\\0"):
        return f"doc_id {doc_id!r} holds '/', '\\' or NUL"
    try:
        size = len(doc_id.encode("utf-8"))
    except UnicodeEncodeError:
        return f"doc_id {doc_id!r} is not valid Unicode"
    if size > MAX_OUTPUT_ID_BYTES:
        return f"doc_id is longer than {MAX_OUTPUT_ID_BYTES} bytes"
    if doc_id in taken:
        return f"doc_id {doc_id!r} repeats an earlier input's; that output is kept"
    return None


def _write_output(payload: str, args, out_dir: Path | None, doc_id: str, ext: str) -> None:
    if out_dir is not None:
        _write_whole(out_dir / f"{doc_id}.{ext}", payload)
    elif args.out:
        _write_whole(Path(args.out), payload)
    else:
        sys.stdout.write(payload)


def _write_whole(path: Path, payload: str) -> None:
    """Write payload to a temporary file in path's directory and move it onto
    path (os.replace), so a killed run leaves the old file or the new one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _runtime_config(args) -> EngineConfig:
    """The config file's values, with --workers over them when it is given."""
    cfg = EngineConfig.from_env_or_default(args.config)
    return cfg if args.workers is None else cfg.copy(workers=args.workers)


def cmd_simulate(args) -> int:
    cfg = _runtime_config(args)
    docs = _workload(args.seed, args.docs)
    if args.scaling:
        counts = [int(x) for x in args.scaling.split(",")]
        scaling_cfg = contention_free_config(seed=args.seed, max_workers=max(counts), engine=cfg)
        report = simulate_scaling(docs, counts, scaling_cfg).to_report()
    else:
        config = PipelineConfig(mode=Mode(args.mode), engine=cfg, seed=args.seed)
        _outputs, metrics = run_pipeline(docs, config)
        report = metrics.to_report()
    if args.report == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_flat(report)
    return 0


def cmd_bench(args) -> int:
    cfg = _runtime_config(args)
    docs = _workload(args.seed, args.docs)
    config = PipelineConfig(engine=cfg, seed=args.seed)
    comparison = compare_modes(docs, config)
    if args.report == "json":
        print(json.dumps(comparison, indent=2, sort_keys=True))
        return 0
    print(f"{'mode':>6} {'workers':>8} {'wall_ms':>12} {'pages/s':>10} {'expert bubble':>14}")
    for row in comparison["modes"]:
        print(
            f"{row['mode']:>6} {row['workers']:>8} {row['wall_ms']:>12.1f} "
            f"{row['throughput_pps']:>10.2f} {row['expert_bubble_fraction']:>14.3f}"
        )
    return 0


def cmd_gen_corpus(args) -> int:
    if args.spec:
        fields = read_fields(corpus_mod.CorpusSpec, args.spec, corpus_mod.InvalidSpec)
        try:
            spec = corpus_mod.CorpusSpec(**fields)
        except corpus_mod.InvalidSpec as exc:
            raise corpus_mod.InvalidSpec(f"{args.spec}: {exc}") from exc
    else:
        spec = corpus_mod.CorpusSpec(
            seed=args.seed,
            n_docs=args.docs,
            pages_min=args.pages_min,
            pages_max=args.pages_max,
            columns=args.columns,
            jitter_sigma=args.jitter,
            merge_prob=args.merge_prob,
            substitution_prob=args.substitution_prob,
            cross_page_split_prob=args.split_prob,
            with_hints=not args.no_hints,
        )
    docs, truth = corpus_mod.gen_corpus(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth_dict = truth.to_dict()
    for doc in docs:
        save_document(doc, out / f"{doc.doc_id}.ir.json")
        (out / f"{doc.doc_id}.truth.json").write_text(
            canonical_json(truth_dict[doc.doc_id]), encoding="utf-8"
        )
    print(f"wrote {len(docs)} document(s) to {out}")
    return 0


def cmd_eval(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    distances: list[float] = []
    pred_pairs: set = set()
    truth_pairs: set = set()
    docs = 0
    for truth_path in sorted(truth_dir.glob("*.truth.json")):
        doc_id = truth_path.name[: -len(".truth.json")]
        pred_path = pred_dir / f"{doc_id}.pred.json"
        if not pred_path.exists():
            print(f"eval: missing prediction for {doc_id}", file=sys.stderr)
            return 1
        truth_pages, pred_pages = _eval_pages(truth_path), _eval_pages(pred_path)
        docs += 1
        for page_index, (order, groups) in truth_pages.items():
            pred_order, pred_groups = pred_pages.get(page_index, ([], []))
            distances.append(corpus_mod.order_edit_distance(pred_order, order))
            truth_pairs.update(groups)
            pred_pairs.update(pred_groups)
    precision, recall, f1 = corpus_mod.grouping_f1(pred_pairs, truth_pairs)
    report = {
        "docs": docs,
        "pages": len(distances),
        "mean_order_edit_distance": (
            round(sum(distances) / len(distances), 6) if distances else 0.0
        ),
        "grouping": {
            "precision": round(precision, 6),
            "recall": round(recall, 6),
            "f1": round(f1, 6),
        },
    }
    if args.report == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_flat(report)
    return 0


def _eval_pages(path: Path) -> dict:
    """page_index -> (order, groups) of a truth or prediction file; a file
    that is not one raises ValueError naming it."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return {page["page_index"]: (list(page["order"]), [frozenset(g) for g in page["groups"]])
                for page in data["pages"]}
    except DECODE_ERRORS as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc


def cmd_serve_echo(args) -> int:
    from .server import make_echo_server

    paths: list[Path] = []
    for raw in args.ir:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.ir.json")))
        else:
            paths.append(p)
    docs = [load_document(p) for p in paths]
    server = make_echo_server(docs, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {len(docs)} document(s) on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _print_flat(report: dict, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            _print_flat(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            print(f"{prefix}{key} = {json.dumps(value)}")
        else:
            print(f"{prefix}{key} = {value}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {
        "parse": cmd_parse,
        "simulate": cmd_simulate,
        "bench": cmd_bench,
        "gen-corpus": cmd_gen_corpus,
        "eval": cmd_eval,
        "serve-echo": cmd_serve_echo,
    }
    try:
        return handlers[args.command](args)
    except StrictModeFailure as exc:
        print(f"uniparse: strict mode: {exc}", file=sys.stderr)
        return 2
    except (SchemaViolation, ExpertError, ValueError, OSError) as exc:
        print(f"uniparse: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
