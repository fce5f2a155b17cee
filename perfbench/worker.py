"""One cold run of one workload, in a fresh process.

``run.py`` starts this file as a subprocess with ``src`` on the path and
every ``REPRO_*`` variable removed.  It writes the job to the worker's
stdin (one JSON line of options, then the program input as JSON) and
reads one JSON result line from its stdout.  In order:

1. interpreter start, then the job is read (input loading is the
   benchmark's and is subtracted from set-up time);
2. ``import repro`` and the program objects the timed call needs (the
   ``Graph``, or the service's ``init`` op) -- together with step 1 this
   is the set-up time, measured from the parent's spawn time on the
   shared monotonic clock;
3. with a trace path set, the layer entry points are wrapped
   (``spans.py``);
4. the timed call, between two reference timings
   (:func:`reference_seconds`);
5. outputs, model-level counts and the resolved configuration are
   reported; the parent checks the outputs.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from contextlib import nullcontext


def _resolved_config(cluster=None) -> dict:
    """The implementation seams the run actually used."""
    from repro.mpc.backend import get_engine_backend
    from repro.mpc.executor import get_executor
    from repro.primitives.columnar import primitive_path
    from repro.sketches.backend import get_backend

    executor = cluster.executor if cluster is not None else get_executor()
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "engine_backend": (cluster.engine_backend if cluster else get_engine_backend()).name,
        "sketch_backend": get_backend().name,
        "primitive_path": primitive_path(),
        "executor": type(executor).__name__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__ if numpy is not None else "absent",
    }


def reference_seconds(rounds: int = 2) -> float:
    """Mean time of a fixed piece of pure-Python work that uses none of
    the program's code: random reads from a 1M-element list, modular
    powers, dict inserts and a sort.  Timed right before and right after
    the call, it gauges how fast the machine runs Python code of the
    program's kind just then; ``run.py`` scales the call's times by it.
    It mixes memory-bound reads (which track the drift of the
    word-accounting workload) with big-integer arithmetic (which tracks
    the sketch workloads).

    The work runs in a forked copy of this process, one process at a
    time, so its memory never counts towards ``peak_rss_mb``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            os.write(write_end, repr(_reference_work(rounds)).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as source:
        seconds = float(source.read())
    os.waitpid(pid, 0)
    return seconds


def _reference_work(rounds: int) -> float:
    """*rounds* timed rounds after one untimed one (the first round pays
    for page faults on fresh memory)."""
    cells = list(range(1 << 20))
    timings = []
    for _ in range(rounds + 1):
        start = time.perf_counter()
        rng = random.Random(0)
        table = {}
        for _ in range(25000):
            key = rng.randrange(len(cells))
            table[cells[key]] = pow(key, 65537, (1 << 61) - 1)
        sorted(table.items())
        timings.append(time.perf_counter() - start)
    return sum(timings[1:]) / rounds


def peak_rss_mb() -> float:
    """This process image's resident high-water mark.  Read from
    ``/proc`` because ``ru_maxrss`` also counts the parent's memory that
    the child held between fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _measure(call, tracer, gauges: list[float]) -> dict:
    """Time *call* between two reference timings (plus any *gauges* the
    call takes on the way)."""
    gauges.append(reference_seconds())
    with _timed_scope(tracer):
        start = time.perf_counter()
        output = call()
        solve_wall_s = time.perf_counter() - start
    gauges.append(reference_seconds())
    return {
        "output": output,
        "solve_wall_s": solve_wall_s,
        "reference_s": sum(gauges) / len(gauges),
        "peak_rss_mb": peak_rss_mb(),
    }


def _timed_scope(tracer):
    """The scope of the timed call: the tracer's root span, with the
    entry points wrapped just before it, or nothing when untraced."""
    if tracer is None:
        return nullcontext()
    tracer.install()
    return tracer.root()


def _ledger_counts(cluster) -> dict:
    ledger = cluster.ledger
    return {
        "rounds": ledger.rounds,
        "total_words": ledger.total_words,
        "max_memory": ledger.max_memory,
    }


def _solve(workload: str, program_input: dict, spawned_at: float, tracer) -> dict:
    import repro  # noqa: F401  (part of set-up: the whole package)
    from repro.graph.graph import Graph

    graph = Graph(program_input["n"], program_input["edges"])
    rng = random.Random(program_input["rng_seed"])
    if workload == "mst_random":
        from repro.core import heterogeneous_mst as solve
    else:
        from repro.core import heterogeneous_connectivity as solve
    ready = time.monotonic()
    measured = _measure(lambda: solve(graph, rng=rng), tracer, [])
    result = measured.pop("output")
    counts = _ledger_counts(result.cluster)
    if workload == "mst_random":
        output = [list(edge) for edge in result.edges]
        counts["boruvka_steps"] = result.boruvka_steps
        counts["sampling_attempts"] = result.sampling_attempts
    else:
        output = {"labels": result.labels, "num_components": result.num_components}
    return {
        **measured,
        "setup_wall_s": ready - spawned_at,
        "output": output,
        "counts": counts,
        "config": _resolved_config(result.cluster),
    }


def _serve(program_input: dict, spawned_at: float, tracer) -> dict:
    import repro  # noqa: F401
    from repro.serve.protocol import ServeSession

    session = ServeSession()
    init = json.loads(session.handle_line(program_input["init"]))
    ready = time.monotonic()
    lines = program_input["lines"]
    latencies = [0.0] * len(lines)
    gauges: list[float] = []
    batch_starts = {
        index for index, line in enumerate(lines) if json.loads(line)["op"] == "update"
    }

    def stream() -> list[str]:
        # The stream takes ~15 s, long enough for the machine's speed to
        # drift, so the reference is also timed between batches (a pause
        # of the client, outside every op's latency).
        handle = session.handle_line  # bound after the wrappers go in
        clock = time.perf_counter
        responses = [""] * len(lines)
        for index, line in enumerate(lines):
            if index and index in batch_starts:
                with tracer.pause() if tracer is not None else nullcontext():
                    gauges.append(reference_seconds(rounds=1))
            began = clock()
            responses[index] = handle(line)
            latencies[index] = clock() - began
        return responses

    measured = _measure(stream, tracer, gauges)
    measured["solve_wall_s"] = sum(latencies)
    responses = measured.pop("output")
    decoded = [json.loads(response) for response in responses]
    output = [
        response["result"].get("connected") if response.get("ok") else "error"
        for response in decoded
    ]
    stats = session.service.stats()
    return {
        **measured,
        "setup_wall_s": ready - spawned_at,
        "init_ok": bool(init.get("ok")),
        "latencies": latencies,
        "output": output,
        "counts": {
            "refreshes": stats["refreshes"],
            "edges": stats["edges"],
            "sketch_words": stats["sketch_words"],
        },
        "config": _resolved_config(),
    }


def main() -> int:
    loading = time.monotonic()
    job = json.loads(sys.stdin.readline())
    program_input = json.loads(sys.stdin.read())
    load_s = time.monotonic() - loading
    tracer = None
    if job["trace_path"]:
        from spans import Tracer

        tracer = Tracer()
    workload = job["workload"]
    if workload == "serve_stream":
        result = _serve(program_input, job["spawned_at"], tracer)
    else:
        result = _solve(workload, program_input, job["spawned_at"], tracer)
    result["setup_wall_s"] -= load_s
    if tracer is not None:
        tracer.write(job["trace_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
