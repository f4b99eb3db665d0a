"""One repetition of a workload, in a fresh interpreter.

    python3 child.py SPEC.json

The spec names the source tree, the directory to work in, the set-up
(``setup`` CLI commands and an optional ``sample`` to cut from a pool) and
the timed ``stages``. Set-up ends when this process writes ``setup_done``
(a ``time.monotonic`` reading, comparable with the parent's), so set-up
covers interpreter start, imports and input generation. Each stage is one
call of ``matproc.cli.dispatch``, timed on its own. The result, with the
peak RSS of this process, goes to ``result`` as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def write_sample(sample: dict) -> None:
    """Copy the header and the rows whose item_id is in ``ids`` from each
    pool file, keeping the pool's row order."""
    wanted = set(sample["ids"])
    for src, dst in sample["files"]:
        with open(src, "r", encoding="utf-8") as fh:
            header, *rows = [line for line in fh if line.strip()]
        kept = [line for line in rows if json.loads(line)["item_id"] in wanted]
        head = json.loads(header)
        if "count" in head:
            head["count"] = len(kept)
        with open(dst, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head, sort_keys=True, separators=(",", ":")) + "\n")
            fh.writelines(kept)


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from matproc.cli import dispatch

    os.chdir(spec["dir"])
    result: dict = {"stages": []}
    for argv in spec.get("setup", []):
        rc = dispatch(argv)
        if rc != 0:
            result["setup_error"] = f"{argv[0]} exited {rc}"
            break
    else:
        if spec.get("sample"):
            write_sample(spec["sample"])
    result["setup_done"] = time.monotonic()

    if "setup_error" not in result and not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        for name, argv in spec["stages"]:
            t0 = time.perf_counter()
            rc = dispatch(argv)
            result["stages"].append({"name": name, "s": time.perf_counter() - t0, "rc": rc})
            if rc != 0:
                break
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(spec["spans"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
