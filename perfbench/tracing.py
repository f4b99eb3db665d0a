"""Spans around calls into matproc's layers, recorded from outside the package.

``install`` wraps each hooked function and rebinds every module attribute
that refers to it, so a call is traced wherever the name is looked up
(``runner.retrieve`` as well as ``retrieval.retrieve``). Methods are wrapped
on their class. Spans stay in memory and ``dump`` writes them when the
traced run ends. The tracer keeps one call stack, which holds because the
benchmark runs every command at ``--jobs 1``.

Per-pair work (cosine per stored process, match score per library entry)
is counted at the calling boundary from the sizes of the arguments rather
than by wrapping the per-pair function, which would cost more than it
measures.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

from checks import item_failed
from stats import highest_percentile, percentile


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _answer_flagged(args, kwargs, result):
    index, trace = result
    return {"flagged": int(item_failed(index, trace.get("flags", [])))}


# (span name, defining module, attribute, extra counts from (args, kwargs, result))
FUNCTION_HOOKS = (
    ("provgraph.parse_record", "matproc.provgraph.parse", "parse_record", None),
    ("provgraph.compile_graph", "matproc.provgraph.analyze", "compile_graph", None),
    ("taskgen.generate_benchmark", "matproc.taskgen.generate", "generate_benchmark", None),
    ("taskgen.instantiate_tasks", "matproc.taskgen.generate", "instantiate_tasks", None),
    ("splits.split_items", "matproc.splits", "split_items", None),
    ("splits.contamination_matrix", "matproc.splits", "contamination_matrix", None),
    ("memory.build_memory", "matproc.memory", "build_memory", None),
    ("memory.save_memory", "matproc.memory", "save_memory", None),
    ("memory.load_memory", "matproc.memory", "load_memory", None),
    ("memory.match_steps", "matproc.memory", "match_steps",
     lambda a, k, r: {"entries_scanned": len(_arg(a, k, 0, "memory").step_library)}),
    ("memory.next_distribution", "matproc.memory", "next_distribution", None),
    ("retrieval.embed_structure", "matproc.retrieval", "embed_structure", None),
    ("retrieval.attach_embeddings", "matproc.retrieval", "attach_embeddings", None),
    ("retrieval.retrieve", "matproc.retrieval", "retrieve",
     lambda a, k, r: {"pairs_scored": len(_arg(a, k, 1, "memory").processes)}),
    ("scoring.symbolic", "matproc.scoring", "score_options_symbolic", None),
    ("scoring.neural", "matproc.scoring", "score_options_neural", None),
    ("scoring.fuse", "matproc.scoring", "fuse_scores", None),
    ("prompts.build_prompt", "matproc.prompts", "build_prompt", None),
    ("prompts.parse_answer", "matproc.prompts", "parse_answer",
     lambda a, k, r: {"unparseable": int(r is None)}),
    ("runner.evaluate", "matproc.runner", "evaluate", None),
    ("runner.answer_item", "matproc.runner", "_answer_item", _answer_flagged),
    ("jsonio.read_ndjson", "matproc.jsonio", "read_ndjson",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("jsonio.write_ndjson", "matproc.jsonio", "write_ndjson", lambda a, k, r: {"rows": r}),
)
# (span name, defining module, class, method, extra counts)
METHOD_HOOKS = (
    ("retrieval.embed", "matproc.retrieval", "BuiltinTextEmbedder", "embed",
     lambda a, k, r: {"texts": len(_arg(a, k, 1, "texts"))}),
    ("chat.complete", "matproc.chat", "MockChatClient", "complete", None),
)
# Called too often for a span each: counted only.
COUNT_HOOKS = (("taskgen.render_route", "matproc.taskgen.model", "render_route"),)
# Spans that open a new item; their children carry its id.
ITEM_SPANS = {"runner.answer_item": lambda a, k: _arg(a, k, 0, "item").item_id}


class Tracer:
    """Records spans as [id, parent id, name, item id, start, end, extra]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._item = None

    def wrap(self, name, fn, extra=None):
        item_of = ITEM_SPANS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_item = self._item
            if item_of is not None:
                self._item = item_of(args, kwargs)
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      name, self._item, 0.0, 0.0, None]
            self.spans.append(record)
            self._stack.append(record[0])
            record[4] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = self.clock()
                self._stack.pop()
                self._item = outer_item
            if extra is not None:
                record[6] = extra(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def rows(self) -> list[dict]:
        keys = ("id", "parent", "name", "item", "t0", "t1", "extra")
        return [dict(zip(keys, span)) for span in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "missing": self.missing}) + "\n")


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "matproc" or name.startswith("matproc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every hook that the loaded matproc still has; record the rest
    in ``tracer.missing``."""
    for name, module_name, attr, extra in FUNCTION_HOOKS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            tracer.missing.append(name)
        else:
            _rebind(original, tracer.wrap(name, original, extra))
    for name, module_name, cls_name, attr, extra in METHOD_HOOKS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None or not hasattr(cls, attr):
            tracer.missing.append(name)
        else:
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), extra))
    for name, module_name, attr in COUNT_HOOKS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            tracer.missing.append(name)
        else:
            _rebind(original, tracer.count(name, original))
    handlers = getattr(sys.modules.get("matproc.cli"), "HANDLERS", None)
    if handlers is None:
        tracer.missing.append("cli")
    else:
        for command, handler in list(handlers.items()):
            handlers[command] = tracer.wrap(f"cli.{command}", handler)


# --- aggregation -------------------------------------------------------------------------


def load_spans(path) -> tuple[list[dict], dict, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    tail = rows.pop()
    return rows, tail["counts"], tail["missing"]


def aggregate(spans: list[dict], counts: dict | None = None) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds (duration minus the
    time covered by direct children), durations, summed extra counts, and
    the seconds spent in each kind of direct child."""
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    out: dict[str, dict] = {}

    def entry(name):
        return out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                     "extra": Counter(), "children": Counter()})

    for s in spans:
        if s["parent"] is not None:
            duration = s["t1"] - s["t0"]
            child_s[s["parent"]] += duration
            entry(by_id[s["parent"]]["name"])["children"][s["name"]] += duration
    for s in spans:
        duration = s["t1"] - s["t0"]
        a = entry(s["name"])
        a["calls"] += 1
        a["s"] += duration
        a["self_s"] += duration - child_s[s["id"]]
        a["durations"].append(duration)
        a["extra"].update(s["extra"] or {})
    for name, n in (counts or {}).items():
        entry(name)["calls"] += n
    return out


def layer_value(agg: dict[str, dict], metric: str, n_items: int) -> float:
    """Resolve a per-layer metric name ``<span>.<field>`` against ``aggregate``.

    Fields: calls, s, self_s, any extra count, calls_per_item, ms_p50, and
    ms_top / top_pct (the highest percentile with ten samples beyond it).
    A layer that the workload never calls reads 0.
    """
    span, _, fld = metric.rpartition(".")
    a = agg.get(span)
    if a is None:
        return 0
    if fld in ("calls", "s", "self_s"):
        return a[fld]
    if fld == "calls_per_item":
        return a["calls"] / n_items if n_items else 0
    if fld in ("ms_p50", "ms_top", "top_pct"):
        p = highest_percentile(len(a["durations"]))
        if fld == "top_pct":
            return p or 0
        if fld == "ms_p50":
            return 1000 * percentile(a["durations"], 50) if a["durations"] else 0
        return 1000 * percentile(a["durations"], p) if p else 0
    return a["extra"].get(fld, 0)
