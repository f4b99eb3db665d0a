"""Tiny graph builders, stored-vector and memory comparisons, an
orthogonal vector, a loopback JSON endpoint, a thread-pool counter and the
README quickstart build shared across test modules."""

from __future__ import annotations

import atexit
import contextlib
import functools
import io
import json
import random
import shutil
import socket
import tempfile
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from matproc.provgraph import ActivityNode, EntityNode, ProcessGraph, compile_graph


def assert_same_vectors(got, want):
    """``got == want`` for loaded stored vectors, nested in mappings or None:
    the same keys, and every vector a read-only float64 array equal to the
    wanted one to the last bit."""
    if want is None or isinstance(want, Mapping):
        assert type(got) is type(want) and (want is None or got.keys() == want.keys())
        for key in want or ():
            assert_same_vectors(got[key], want[key])
        return
    assert type(got) is np.ndarray and got.dtype == np.float64 and not got.flags.writeable
    assert np.array_equal(got, want)


def assert_same_memory(got, want):
    """``got == want`` for two memories, which ``==`` compares by identity:
    the same header fields, processes, step library, views and vectors."""
    assert (got.split_id, got.max_prefix_len) == (want.split_id, want.max_prefix_len)
    assert got.processes == want.processes and got.step_library == want.step_library
    assert got.transition_table == want.transition_table and got.prefix_index == want.prefix_index
    assert_same_vectors(got.vectors, want.vectors)


def orthogonal_to(v):
    """A vector orthogonal to the non-zero ``v``: its two largest coordinates
    swapped, one of them negated, every other coordinate 0. The two products
    of the dot cancel to within one rounding, so its cosine with ``v`` maps
    onto exactly 0.5."""
    i, j = np.argsort(-np.abs(v), kind="stable")[:2]
    w = np.zeros_like(v)
    w[i], w[j] = v[j], -v[i]
    return w


def chain_graph(labels, record_id="g0", doi="10.1/x", year=2018, material_class="thermoelectric",
                conditions=None, tools=None, precursors=("lithium carbonate",)):
    """precursors -> a0 -> m1 -> a1 -> ... -> product, one usage/generation per hop."""
    g = ProcessGraph(record_id=record_id, doi=doi, year=year, material_class=material_class)
    for i, name in enumerate(precursors):
        g.material_entities.append(
            EntityNode(id=f"p{i}", label=name, kind="material", attributes={"form": "powder"})
        )
    prev = [e.id for e in g.material_entities]
    for i, label in enumerate(labels):
        act = ActivityNode(id=f"a{i}", label=label, source_position=i,
                           conditions=dict((conditions or {}).get(label, {})))
        g.activities.append(act)
        for src in prev:
            g.usage_edges.append((src, act.id))
        out = EntityNode(id=f"m{i}", label=f"stage {i}", kind="material", attributes={"form": "powder"})
        g.material_entities.append(out)
        g.generation_edges.append((act.id, out.id))
        prev = [out.id]
        for tool_label in (tools or {}).get(label, ()):  # one tool entity per (label, activity)
            tid = f"t{i}_{tool_label}"
            g.tool_entities.append(
                EntityNode(id=tid, label=tool_label, kind="tool", attributes={"category": "tool"})
            )
            g.usage_edges.append((tid, act.id))
    return g


def random_graph(seed, n_materials=12, n_tools=3, n_activities=5, p_edge=0.35):
    """Random bipartite-ish graph; may be cyclic, used for role oracles only."""
    rng = random.Random(seed)
    g = ProcessGraph(record_id=f"rand-{seed}", doi=f"10.9/{seed}", year=2015)
    for i in range(n_materials):
        g.material_entities.append(EntityNode(id=f"m{i}", label=f"mat {i}", kind="material"))
    for i in range(n_tools):
        g.tool_entities.append(EntityNode(id=f"t{i}", label=f"tool {i}", kind="tool"))
    for i in range(n_activities):
        g.activities.append(ActivityNode(id=f"a{i}", label=f"op {i}", source_position=i))
    for e in g.material_entities + g.tool_entities:
        for a in g.activities:
            if rng.random() < p_edge:
                g.usage_edges.append((e.id, a.id))
    for a in g.activities:
        for e in g.material_entities:
            if rng.random() < p_edge / 2:
                g.generation_edges.append((a.id, e.id))
    return g


def compiled(g):
    return compile_graph(g)


@dataclass
class Reply:
    """One canned endpoint answer: ``body`` is sent as JSON unless it is bytes;
    with ``status`` None the bytes are the whole answer, status line included."""

    body: object = None
    status: int | None = 200
    delay: float = 0.0


class LoopbackEndpoint:
    """An HTTP server on 127.0.0.1 (port 0, daemon thread) that answers every
    POST with the next of ``replies`` (the last one repeats) and appends each
    request to ``received`` as ``(path, headers, decoded JSON body)``."""

    def __init__(self, *replies):
        self.replies = [r if isinstance(r, Reply) else Reply(r) for r in replies]
        self.received: list[tuple[str, dict, object]] = []
        self._lock = threading.Lock()
        self._release = threading.Event()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                with endpoint._lock:
                    endpoint.received.append((self.path, dict(self.headers), json.loads(raw)))
                    n = min(len(endpoint.received), len(endpoint.replies))
                reply = endpoint.replies[n - 1]
                endpoint._release.wait(reply.delay)
                data = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
                if reply.status is None:
                    self.wfile.write(data)
                    return
                self.send_response(reply.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.handle_error = lambda *args: None  # a client that gave up
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1"
        threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        ).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._release.set()
        self._server.shutdown()
        self._server.server_close()


def count_thread_pools(monkeypatch) -> list[int]:
    """A list that grows by the worker count of each thread pool the runner starts."""
    from matproc import runner

    started: list[int] = []
    pool = runner.ThreadPoolExecutor

    def counted(max_workers):
        started.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", counted)
    return started


def closed_port_url() -> str:
    """A loopback URL on a port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"


@functools.lru_cache(maxsize=None)
def quickstart_dir() -> Path:
    """A directory holding the README quickstart's build up to its split
    (``synth --n 200 --seed 11``, genbench seed 4, the ``year`` protocol):
    ``raw``, ``graphs``, ``warn``, ``bench``, ``skips`` and ``split``, each
    ``<name>.ndjson``. Built once per test process and removed at its exit;
    tests write beside it only in directories of their own."""
    from matproc import cli

    root = Path(tempfile.mkdtemp(prefix="matproc-quickstart-"))
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    raw, graphs, bench, split = (str(root / f"{name}.ndjson")
                                 for name in ("raw", "graphs", "bench", "split"))
    steps = [
        ["synth", "--out", raw, "--n", "200", "--seed", "11"],
        ["compile", "--in", raw, "--out", graphs, "--warnings", str(root / "warn.ndjson")],
        ["genbench", "--graphs", graphs, "--out", bench, "--skips", str(root / "skips.ndjson"),
         "--seed", "4"],
        ["split", "--bench", bench, "--out", split, "--protocol", "year"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert cli.dispatch(argv) == 0, argv
    return root
