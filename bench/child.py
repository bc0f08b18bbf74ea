"""One benchmark pass in a fresh interpreter.

Usage (started by run.py, one process per pass):

    python3 bench/child.py SPEC_JSON SPAWNED

SPEC_JSON names the source directory, the command lines, the output
directory, whether to trace, and where to write the result.  SPAWNED is the
parent's ``time.monotonic()`` (CLOCK_MONOTONIC, shared by all processes)
read just before it started this process.
The pass imports ``rwre.cli`` (that import is the set-up time), then runs
every command in-process through ``rwre.cli.main(argv)`` back to back and
writes a JSON record: per-command exit status, wall and CPU time, peak RSS
and, when traced, the per-layer span summary.

Before the first command and after every command the pass times
``reference()``, a fixed mix of interpreter and small-array numpy work that
does not involve rwre.  On a shared machine the speed of the CPU drifts by
tens of percent over minutes; run.py divides each command's time by the
reference timings around it, so the drift cancels and a change in rwre
does not.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

# reference() takes about this long on the machine the baseline was
# recorded on; run.py scales times to it.  Changing the kernel or this
# constant changes every reported time, so both belong to the benchmark.
REFERENCE_NOMINAL_S = 0.035


def reference(np) -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work."""
    x = np.linspace(0.1, 0.9, 256)
    t0 = time.perf_counter()
    s = 0
    for k in range(250_000):
        s += k * k
    for _ in range(3_000):
        s += float(np.exp(np.cumsum(np.log(x)))[-1])
    return time.perf_counter() - t0


def main(spec_path: str, spawned: float) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import rwre.cli  # noqa: E402  -- the set-up being measured

    ready = time.monotonic()
    record = {"setup_s": ready - spawned, "commands": []}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, summarize  # bench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()

    import numpy  # already loaded by rwre.cli

    record["reference_s"] = [reference(numpy)]
    pass_t0 = time.perf_counter()
    for index, (name, argv) in enumerate(spec["commands"]):
        out = os.path.join(spec["out_dir"], name)
        entry = {"name": name, "exit": None, "error": None}
        cli_main = rwre.cli.main  # the wrapper when traced
        if tracer is not None:
            tracer.command = index
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            entry["exit"] = cli_main(list(argv) + ["--out", out])
        except (Exception, SystemExit) as exc:  # a failed command, not a failed pass
            entry["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        entry["wall_s"] = time.perf_counter() - t0
        entry["cpu_s"] = time.process_time() - c0
        record["commands"].append(entry)
        record["reference_s"].append(reference(numpy))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        summary = summarize(tracer.spans)
        # The traced time of a command is its root span, so self times of
        # all layers add up to the pass time exactly.
        roots = summary.pop("roots")
        for index, entry in enumerate(record["commands"]):
            entry["wall_s"] = roots.get(index, entry["wall_s"])
        record["layers"] = summary
        record["counts"] = dict(tracer.counts)
        record["count_errors"] = tracer.count_errors
        record["spans"] = len(tracer.spans)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"], pass_t0)

    with open(spec["result"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
