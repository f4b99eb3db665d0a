"""Command-line entry point wiring every pipeline stage.

Stages communicate only through files: synth writes raw provenance
documents, compile turns them into a graph store, genbench emits the
question set, split assigns partitions, build-memory folds the train
partition into a process memory, and eval/ablate/report consume all of
the above. Re-running any stage with identical inputs and configuration
overwrites its outputs with byte-identical files.

Exit codes: 0 success, 2 usage error, 3 data error, 4 endpoint error. A
command whose standard output is closed early (``matproc audit ... | head``)
stops quietly with 0: it prints only after writing its artifacts.
"""

from __future__ import annotations

import argparse
import os
import select
import sys

from . import __version__
from .config import RunConfig, load_config_file
from .errors import (
    ConfigConflict,
    DataError,
    EmptyCorpus,
    EmptyTestPartition,
    EndpointError,
    MalformedDocument,
    MatprocError,
    UnknownCommand,
    UnknownItemId,
    UsageError,
)
from .jsonio import (
    artifact_header,
    loads,
    read_artifact,
    read_header,
    write_ndjson,
)
from .memory import build_memory, load_memory, save_memory
from .provgraph import (
    FieldMap,
    SynthParams,
    compile_graph,
    generate_synthetic_corpus,
    parse_record,
    record_id_of,
    to_prov_document,
)
from .provgraph.store import load_graphs, write_graph_store
from .runner import (
    AblationRow,
    EvalReport,
    evaluate,
    render_ablation_table,
    render_report,
    run_ablation,
)
from .splits import (
    PARTITIONS,
    PROTOCOLS,
    SPLIT_FORMAT,
    AuditRow,
    check_assignment,
    contamination_matrix,
    read_assignment,
    render_audit,
    render_split_counts,
    render_split_report,
    split_items,
    split_report,
    write_assignment,
)
from .taskgen import BenchItem, GenCaps, generate_benchmark
from .taskgen.model import StepQuestion
from .taskgen.store import load_items, write_benchmark

RAW_FORMAT = "matproc-raw-prov"
WARNINGS_FORMAT = "matproc-compile-warnings"
AUDIT_FORMAT = "matproc-audit"
EVAL_REPORT_FORMAT = "matproc-eval-report"
EVAL_LOG_FORMAT = "matproc-eval-log"
ABLATION_FORMAT = "matproc-ablation"


def _header(fmt: str, cfg: RunConfig, **extra) -> dict:
    return artifact_header(fmt, config_hash=cfg.config_hash(), **extra)


# --- stage handlers ---------------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> int:
    graphs = generate_synthetic_corpus(SynthParams(n_records=cfg.n_records), seed=cfg.seed)
    docs = (to_prov_document(g) for g in graphs)
    n = write_ndjson(
        cfg.path("raw"), _header(RAW_FORMAT, cfg, count=len(graphs), seed=cfg.seed), docs
    )
    print(f"wrote {n} raw provenance records -> {cfg.path('raw')}")
    return 0


def cmd_compile(cfg: RunConfig) -> int:
    _, rows = read_artifact(cfg.path("raw"), RAW_FORMAT, lambda row: row)
    field_map = FieldMap.from_dict(cfg.field_map) if cfg.field_map else None
    graphs, warning_rows = {}, []  # record id -> its graph
    for row in rows:
        record_id = (record_id_of(row, field_map) if isinstance(row, dict) else "") or "?"
        try:
            g = compile_graph(parse_record(row, field_map))
            if g.record_id in graphs:
                raise MalformedDocument(f"record id {g.record_id!r} is taken by an earlier record")
        except MatprocError as exc:
            warning_rows.append(
                {"record_id": record_id, "warning": f"excluded: {type(exc).__name__}: {exc}"}
            )
            continue
        graphs[g.record_id] = g
        warning_rows.extend({"record_id": g.record_id, "warning": w} for w in g.warnings)
    write_graph_store(cfg.path("graphs"), list(graphs.values()), cfg.config_hash())
    if cfg.paths.get("warnings"):
        write_ndjson(cfg.paths["warnings"], _header(WARNINGS_FORMAT, cfg), warning_rows)
    excluded = len(rows) - len(graphs)
    print(
        f"compiled {len(graphs)} graphs ({excluded} records excluded) -> {cfg.path('graphs')}"
    )
    return 0


def cmd_genbench(cfg: RunConfig) -> int:
    graphs = load_graphs(cfg.path("graphs"))
    caps = GenCaps.from_dict(cfg.caps) if cfg.caps else None
    items, skip_log = generate_benchmark(
        graphs, k_options=cfg.k_options, seed=cfg.seed, caps=caps
    )
    write_benchmark(
        cfg.path("bench"),
        items,
        seed=cfg.seed,
        k_options=cfg.k_options,
        config_hash=cfg.config_hash(),
        skip_log=skip_log,
        skips_path=cfg.paths.get("skips") or None,
    )
    by_task: dict[str, int] = {}
    for it in items:
        by_task[it.task] = by_task.get(it.task, 0) + 1
    mix = ", ".join(f"{task} {n}" for task, n in sorted(by_task.items()))
    print(f"generated {len(items)} items ({mix}) -> {cfg.path('bench')}")
    return 0


def cmd_split(cfg: RunConfig) -> int:
    items = load_items(cfg.path("bench"))
    if not items:  # an assignment of no items would leave nothing to evaluate or render
        raise EmptyCorpus(f"{cfg.path('bench')}: no items to split")
    assignment = split_items(items, cfg.protocol, seed=cfg.seed, ratios=cfg.ratios,
                             held_out_class=cfg.held_out_class, dev_ratio=cfg.dev_ratio)
    write_assignment(cfg.path("split"), assignment, cfg.config_hash())
    print(render_split_report(split_report(assignment, items)))
    print(f"assignment -> {cfg.path('split')}")
    return 0


def _parse_pairs(pairs: str) -> list[tuple[str, str]]:
    out = []
    for chunk in pairs.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep or not left or not right:
            raise ConfigConflict(f"audit pair {chunk!r} must look like train_of:test_of")
        for name in (left, right):
            if name not in PROTOCOLS:
                raise ConfigConflict(
                    f"audit pair {chunk!r}: protocol {name!r} is not one of {', '.join(PROTOCOLS)}")
        out.append((left, right))
    if not out:
        raise ConfigConflict("audit needs at least one train_of:test_of pair")
    return out


def cmd_audit(cfg: RunConfig) -> int:
    items = load_items(cfg.path("bench"))
    pairs = _parse_pairs(cfg.pairs)
    protocols = sorted({name for pair in pairs for name in pair})
    assignments = [split_items(items, p, seed=cfg.seed, ratios=cfg.ratios,
                               held_out_class=cfg.held_out_class, dev_ratio=cfg.dev_ratio)
                   for p in protocols]
    matrix = contamination_matrix(assignments, items)
    rows = [AuditRow(a, b, matrix.entries[(a, b)]) for a, b in pairs]
    if cfg.paths.get("report"):
        write_ndjson(cfg.paths["report"], _header(AUDIT_FORMAT, cfg), rows)
    print(render_audit(rows))
    return 0


def _train_graphs(cfg: RunConfig):
    """The graphs of the split's train items, their ids and the split; the
    bench and every other graph are freed on return."""
    graphs = load_graphs(cfg.path("graphs"))
    items = load_items(cfg.path("bench"))
    assignment = read_assignment(cfg.path("split"))
    check_assignment(assignment, items)
    # The memory is the train partition's process set. Graph-aligned
    # protocols (year/type/dual) put a graph's items in one partition (the
    # bench reader refuses a graph whose items disagree on the facts they
    # assign by), so this is exactly the train graphs; the random protocol
    # splits at item level, and its same-graph overlap is a property the
    # audit reports, not one this stage hides.
    train_ids = {it.graph_id for it in assignment.items_in(items, "train")}
    return [g for g in graphs if g.record_id in train_ids], train_ids, assignment


def cmd_build_memory(cfg: RunConfig) -> int:
    selected, train_ids, assignment = _train_graphs(cfg)
    memory = build_memory(
        selected,
        split_id=assignment.split_id,
        max_prefix_len=cfg.max_prefix_len,
        allowed_graph_ids=train_ids,
    )
    save_memory(cfg.path("memory"), memory, cfg.config_hash())
    print(
        f"memory over {len(selected)} train graphs "
        f"({len(memory.step_library)} steps) -> {cfg.path('memory')}"
    )
    return 0


def _chat_client(cfg: RunConfig):
    from .chat import get_chat_client

    return get_chat_client(
        cfg.endpoints.chat_url or None, cfg.endpoints.chat_token or None
    )


def _load_predictions(path: str, items: list[BenchItem]) -> dict[str, int]:
    """The item_id -> option index mapping at ``path``; every id must name
    one of ``items``, the whole bench, so ids of other partitions are valid."""
    with open(path, "rb") as fh:
        try:
            raw = loads(fh.read())
        except ValueError as exc:
            raise MalformedDocument(f"{path}: predictions are not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedDocument(f"{path}: predictions must map item_id to option index")
    for item_id, index in raw.items():
        if type(index) is not int:
            raise MalformedDocument(
                f"{path}: item {item_id!r} has option index {index!r}, not an integer"
            )
    strangers = sorted(raw.keys() - {it.item_id for it in items})
    if strangers:
        raise UnknownItemId(f"{path}: predicted items not in the bench ({len(strangers)} in all):"
                            f" {strangers[:3]}")
    return raw


def _eval_inputs(cfg: RunConfig):
    items = load_items(cfg.path("bench"))
    assignment = read_assignment(cfg.path("split"))
    check_assignment(assignment, items)
    part_items = assignment.items_in(items, cfg.partition)
    if not part_items:
        raise EmptyTestPartition(f"partition {cfg.partition!r} holds no items")
    memory = load_memory(cfg.path("memory")) if cfg.paths.get("memory") else None
    if memory is not None:
        _check_memory_routes(cfg, items, memory)
        _check_memory_fits_split(cfg, items, assignment, part_items, memory)
    return items, assignment, part_items, memory


def _check_memory_routes(cfg: RunConfig, items, memory) -> None:
    """Raise :class:`DataError` when a memory process's route differs from
    the route a step question (B1, B2, C1) of its graph shows: the memory
    and the question set then come from different graphs that share ids."""
    differing = {}  # graph id -> the first item whose route differs
    for it in items:
        p = memory.by_graph_id.get(it.graph_id)
        if (p is not None and isinstance(it.question, StepQuestion)
                and tuple(it.question.route) != p.route):
            differing.setdefault(it.graph_id, it.item_id)
    if differing:
        graph_id, item_id = next(iter(differing.items()))
        raise DataError(
            f"{cfg.path('memory')} holds {len(differing)} of {len(memory.processes)} processes whose"
            f" route differs from the one items of {cfg.path('bench')} show, e.g. process"
            f" {graph_id!r} against item {item_id!r}; build the memory from this question set's"
            " graphs")


def _check_memory_fits_split(cfg: RunConfig, items, assignment, part_items, memory) -> None:
    """Raise :class:`DataError` when the memory holds a *stranger*: a process
    whose graph has items in the split but none in its train partition, so
    that it remembers what the split holds out. Under a protocol other than
    ``random``, which splits by item, a process whose graph has an item in
    the evaluated partition is a stranger too."""
    train = {it.graph_id for it in assignment.items_in(items, "train")}
    split = {it.graph_id for it in items}  # items_in checked every item is assigned
    strangers = sorted(p.graph_id for p in memory.processes
                       if p.graph_id in split and p.graph_id not in train)
    if strangers:
        raise DataError(
            f"{cfg.path('memory')} holds {len(strangers)} of {len(memory.processes)} processes whose"
            f" graphs have items in {cfg.path('split')} but none in its train partition, e.g."
            f" {strangers[:3]}; build the memory from this split")
    if assignment.protocol == "random":
        return
    evaluated = {it.graph_id for it in part_items}
    held = sorted(p.graph_id for p in memory.processes if p.graph_id in evaluated)
    if held:
        raise DataError(
            f"{cfg.path('memory')} holds {len(held)} of {len(memory.processes)} processes whose"
            f" graphs have items in partition {cfg.partition!r} of {cfg.path('split')}, e.g."
            f" {held[:3]}; a {assignment.protocol!r} split puts each graph's items in one"
            " partition, so re-run split and build-memory")


def cmd_eval(cfg: RunConfig) -> int:
    has_predictions = bool(cfg.paths.get("predictions"))
    if cfg.policy == "external_predictions" and not has_predictions:
        raise ConfigConflict("external_predictions needs a --predictions file")
    if has_predictions and cfg.policy != "external_predictions":
        raise ConfigConflict(
            f"--predictions only applies to external_predictions, not {cfg.policy!r}"
        )
    items, assignment, part_items, memory = _eval_inputs(cfg)
    train_items = (
        assignment.items_in(items, "train") if cfg.policy == "few_shot" else None
    )
    predictions = _load_predictions(cfg.paths["predictions"], items) if has_predictions else None
    report, rows = evaluate(
        part_items,
        memory,
        cfg.policy_config(),
        client=_chat_client(cfg),
        train_items=train_items,
        predictions=predictions,
        partition=cfg.partition,
        jobs=cfg.jobs,
        split_id=assignment.split_id,
    )
    if cfg.paths.get("log"):
        write_ndjson(
            cfg.paths["log"],
            _header(EVAL_LOG_FORMAT, cfg, policy=cfg.policy, partition=cfg.partition),
            rows,
        )
        report.log_path = cfg.paths["log"]
    if cfg.paths.get("report"):
        write_ndjson(cfg.paths["report"], _header(EVAL_REPORT_FORMAT, cfg), [report])
    print(render_report(report))
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    _, assignment, part_items, memory = _eval_inputs(cfg)
    results = run_ablation(
        part_items,
        memory,
        base=cfg.policy_config(),
        client=_chat_client(cfg),
        axes=cfg.axes,
        jobs=cfg.jobs,
        split_id=assignment.split_id,
    )
    if cfg.paths.get("report"):
        write_ndjson(cfg.paths["report"], _header(ABLATION_FORMAT, cfg), results)
    print(render_ablation_table(results))
    return 0


def _rows(fmt: str, row_type):
    """The reader of the rows of an artifact of format ``fmt``."""
    return lambda path: read_artifact(path, fmt, row_type.from_dict)[1]


# artifact format -> (reader of the file, renderer of what it read)
REPORTS = {
    EVAL_REPORT_FORMAT: (_rows(EVAL_REPORT_FORMAT, EvalReport), lambda rows: render_report(rows[0])),
    ABLATION_FORMAT: (_rows(ABLATION_FORMAT, AblationRow), render_ablation_table),
    AUDIT_FORMAT: (_rows(AUDIT_FORMAT, AuditRow), render_audit),
    SPLIT_FORMAT: (read_assignment, render_split_counts),
}


def cmd_report(cfg: RunConfig) -> int:
    path = cfg.path("report")
    fmt = read_header(path)["format"]
    if fmt not in REPORTS:
        raise MalformedDocument(f"{path}: no renderer for artifact format {fmt!r}")
    read, render = REPORTS[fmt]
    artifact = read(path)  # read_assignment refuses a split of no items itself
    if not artifact:
        raise MalformedDocument(f"{path}: no rows to render")
    print(render(artifact))
    return 0


HANDLERS = {
    "synth": cmd_synth,
    "compile": cmd_compile,
    "genbench": cmd_genbench,
    "split": cmd_split,
    "audit": cmd_audit,
    "build-memory": cmd_build_memory,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "report": cmd_report,
}
COMMANDS = tuple(HANDLERS)


# --- argument parsing -------------------------------------------------------------------


def _csv_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _csv_names(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matproc",
        description="Synthesis-provenance benchmark toolkit: "
        "compile graphs, generate questions, split, audit, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"matproc {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--config", help="JSON config file merged under explicit flags")
        p.add_argument("--seed", type=int, dest="seed")
        p.add_argument("--jobs", type=int, dest="jobs")

    p = sub.add_parser("synth", help="generate a synthetic raw provenance corpus")
    common(p)
    p.add_argument("--out", dest="path_raw", help="raw records file to write")
    p.add_argument("--n", type=int, dest="n_records", help="number of records")

    p = sub.add_parser("compile", help="parse raw records into a graph store")
    common(p)
    p.add_argument("--in", dest="path_raw", help="raw records file")
    p.add_argument("--out", dest="path_graphs", help="graph store to write")
    p.add_argument("--warnings", dest="path_warnings", help="warnings/exclusions file")
    p.add_argument("--field-map", dest="field_map_file", help="JSON field-map overrides")

    p = sub.add_parser("genbench", help="generate the question set from a graph store")
    common(p)
    p.add_argument("--graphs", dest="path_graphs", help="graph store file")
    p.add_argument("--out", dest="path_bench", help="question set to write")
    p.add_argument("--skips", dest="path_skips", help="skip log to write")
    p.add_argument("--k", type=int, dest="k_options", help="options per question")
    p.add_argument("--caps", type=loads, dest="caps", help="per-graph caps JSON")

    p = sub.add_parser("split", help="assign questions to train/dev/test partitions")
    common(p)
    p.add_argument("--bench", dest="path_bench", help="question set file")
    p.add_argument("--out", dest="path_split", help="assignment file to write")
    p.add_argument("--protocol", dest="protocol", choices=PROTOCOLS)
    p.add_argument("--ratios", type=_csv_floats, dest="ratios", help="train,dev,test")
    p.add_argument("--held-out-class", dest="held_out_class")
    p.add_argument("--dev-ratio", type=float, dest="dev_ratio")

    p = sub.add_parser("audit", help="cross-protocol contamination audit")
    common(p)
    p.add_argument("--bench", dest="path_bench", help="question set file")
    p.add_argument("--pairs", dest="pairs", help="train_of:test_of pairs, comma-separated")
    p.add_argument("--out", dest="path_report", help="audit table to write")
    p.add_argument("--held-out-class", dest="held_out_class")
    p.add_argument("--dev-ratio", type=float, dest="dev_ratio")

    p = sub.add_parser("build-memory", help="fold the train partition into a memory")
    common(p)
    p.add_argument("--graphs", dest="path_graphs", help="graph store file")
    p.add_argument("--bench", dest="path_bench", help="question set file")
    p.add_argument("--split", dest="path_split", help="assignment file")
    p.add_argument("--out", dest="path_memory", help="memory file to write")
    p.add_argument("--max-prefix-len", type=int, dest="max_prefix_len")

    def eval_flags(p):
        p.add_argument("--bench", dest="path_bench", help="question set file")
        p.add_argument("--split", dest="path_split", help="assignment file")
        p.add_argument("--memory", dest="path_memory", help="memory file")
        p.add_argument("--partition", dest="partition", choices=PARTITIONS)
        p.add_argument("--report", dest="path_report", help="report file to write")
        p.add_argument("--chat-url", dest="endpoint_chat_url")
        p.add_argument("--chat-token", dest="endpoint_chat_token")

    p = sub.add_parser("eval", help="answer one partition under one policy")
    common(p)
    eval_flags(p)
    p.add_argument("--log", dest="path_log", help="per-item log to write")
    p.add_argument("--policy", dest="policy")
    p.add_argument("--lam", type=float, dest="lam", help="symbolic weight in [0,1]")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--predictions", dest="path_predictions", help="external answers JSON")
    p.add_argument("--no-planning", action="store_const", const=False, dest="runner_planning")
    p.add_argument("--no-fallback", action="store_const", const=False, dest="runner_fallback")
    p.add_argument(
        "--log-full-prompts",
        action="store_const",
        const=True,
        dest="runner_log_full_prompts",
    )

    p = sub.add_parser("ablate", help="run the ablation grid on one partition")
    common(p)
    eval_flags(p)
    p.add_argument("--axes", type=_csv_names, dest="axes", help="grid blocks to run")

    p = sub.add_parser("report", help="render a saved artifact as text")
    common(p)
    p.add_argument("--in", dest="path_report", help="artifact file to render")

    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    out: dict = {}
    paths: dict[str, str] = {}
    runner: dict = {}
    endpoints: dict = {}
    for dest, value in vars(args).items():
        if value is None or dest in ("command", "config"):
            continue
        if dest == "field_map_file":
            out["field_map"] = load_config_file(value)
        elif dest.startswith("path_"):
            paths[dest[len("path_"):]] = value
        elif dest.startswith("runner_"):
            runner[dest[len("runner_"):]] = value
        elif dest.startswith("endpoint_"):
            endpoints[dest[len("endpoint_"):]] = value
        else:
            out[dest] = value
    if paths:
        out["paths"] = paths
    if runner:
        out["runner"] = runner
    if endpoints:
        out["endpoints"] = endpoints
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then explicit flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = cfg.merged(load_config_file(args.config))
    return cfg.merged(_overrides_from(args))


def dispatch(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
            raise UnknownCommand(
                f"unknown command {argv[0]!r}; expected one of: {', '.join(COMMANDS)}"
            )
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse already printed a diagnostic
            return int(exc.code or 0)
        if not args.command:
            parser.print_help()
            return 2
        cfg = resolve_config(args)
        return HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EndpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MatprocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _stdout_closed() -> bool:
    """Whether standard output is a pipe or socket whose reader has gone. If
    so, it then writes to the null device, so that nothing is left for the
    interpreter's own flush at exit to fail on."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):  # no descriptor, as under redirect_stdout
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    if not any(events & select.POLLERR for _, events in poller.poll(0)):
        return False
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return True


def main() -> None:
    code = dispatch()
    try:
        sys.stdout.flush()  # here rather than at exit, where a reader that has gone fails loudly
    except BrokenPipeError:
        _stdout_closed()
    sys.exit(code)


if __name__ == "__main__":
    main()
