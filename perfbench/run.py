"""End-to-end benchmark of the Heterogeneous MPC simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mst_random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Workloads: ``mst_random``, ``connectivity_planted``, ``serve_stream``
(see ``workloads.py`` and ``LAYERS.md``).  The seed makes every input;
``1`` is the default and ``2027`` is held out for re-checking claims.

Each run starts fresh worker processes one after another (``worker.py``,
one cold call each, every ``REPRO_*`` variable removed from the
environment) until ``--seconds`` have passed, checks every output against
the benchmark's own exact oracle, and reports one value per metric over
the workers.  With ``--trace 1`` it alternates untraced and traced
workers and reports per-layer self time from the traced ones
(``spans.py``) instead of the end-to-end metrics.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Reported on every workload with ``--trace 0``; BENCHMARK.json bounds them.
#: The two times are scaled to a machine running the reference work
#: (``worker.reference_seconds``, timed around each call) in
#: REFERENCE_S: ``wall * REFERENCE_S / reference_s``.
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
REFERENCE_S = 0.15
#: Printed, not bounded: the raw wall times behind the scaled ones, and
#: the service figures, which the solver workloads do not define.
WALL_DETAIL = {"setup_wall_s": "s", "solve_wall_s": "s", "reference_s": "s"}
SERVE_DETAIL = {
    "ingest_updates_per_s": "1/s",
    "refresh_s_p50": "s",
    "query_us_p50": "us",
    "query_us_p99": "us",
}
#: The configuration every baseline must run on.
DEFAULT_CONFIG = {
    "engine_backend": "pure",
    "sketch_backend": "pure",
    "primitive_path": "columnar",
    "executor": "SerialExecutor",
}
#: No new worker starts after this many seconds; a run must end within 180.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0
MIN_UNTRACED_WORKERS = 2


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "fraction"
    for count in spans.COUNTS:
        units[count] = "words" if count.endswith("words") else "count"
    units["trace_overhead_frac"] = "fraction"
    units["trace.unresolved"] = "count"
    return units


def source_digest() -> str:
    """Hash of the program's source, keying the model-count record."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spawn(workload: str, input_text: str, trace_path: str, timeout: float) -> dict:
    """Run one worker process; returns its result or ``{"error": ...}``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    meta = {"workload": workload, "trace_path": trace_path, "spawned_at": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(meta) + "\n" + input_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    return json.loads(stdout.strip().splitlines()[-1])


def wrong_answers(workload: str, result: dict, expected) -> tuple[int, int]:
    """``(attempted, wrong)`` for one worker's outputs."""
    output = result["output"]
    if workload == "mst_random":
        return 1, int(output != [list(edge) for edge in expected])
    if workload == "connectivity_planted":
        ok = output["labels"] == expected and output["num_components"] == len(set(expected))
        return 1, int(not ok)
    wrong = sum(got != want for got, want in zip(output, expected))
    wrong += abs(len(output) - len(expected)) + (not result["init_ok"])
    return 1 + len(expected), wrong


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def serve_detail(results: list[dict], case: tuple[dict, list]) -> dict[str, float]:
    """Ingest rate and query latencies pooled over every worker's stream."""
    program_input, expected = case
    per_stream = sum(
        len(request["insert"]) + len(request["delete"])
        for request in map(json.loads, program_input["lines"])
        if request["op"] == "update"
    )
    update_s, refresh, warm = 0.0, [], []
    for result in results:
        after_update = False
        for want, latency in zip(expected, result["latencies"]):
            if want is None:
                update_s += latency
                after_update = True
            elif after_update:
                refresh.append(latency)
                after_update = False
            else:
                warm.append(latency)
    return {
        "ingest_updates_per_s": per_stream * len(results) / update_s,
        "refresh_s_p50": statistics.median(refresh),
        "query_us_p50": 1e6 * statistics.median(warm),
        "query_us_p99": 1e6 * percentile(warm, 0.99),
    }


def check_counts(key: str, counts: list[dict]) -> list[str]:
    """Model-level counts of one input must repeat across every process of
    this run and across earlier runs of the same source and input
    (recorded in OUT)."""
    problems = [
        f"{key}: process {index} counts {c} differ from {counts[0]}"
        for index, c in enumerate(counts) if c != counts[0]
    ]
    record_path = OUT / "counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if key in record and record[key] != counts[0]:
        problems.append(f"{key}: counts {counts[0]} differ from an earlier run {record[key]}")
    record.setdefault(key, counts[0])
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


def central(values: list[float]) -> float:
    """The run's value of a per-process time: the mean after dropping the
    fastest and the slowest process (the median below five processes).
    On ``mst_random`` a median would land on whichever of the two work
    modes holds the majority of the run's graphs (see
    ``workloads.CASES``); the trimmed mean weighs both and still drops a
    lone outlier."""
    if len(values) < 5:
        return statistics.median(values)
    return statistics.fmean(sorted(values)[1:-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict | None:
    cases = [
        workloads.make(workload, seed, scale, case)
        for case in range(workloads.CASES[workload])
    ]
    texts = [json.dumps(program_input) for program_input, _ in cases]
    trace_path = str(OUT / f"spans-{workload}.bin")
    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    kinds = (False, True) if trace else (False,)
    pair = 0
    while True:
        case = pair % len(cases)
        for traced_kind in kinds:
            elapsed = time.perf_counter() - started
            result = spawn(
                workload, texts[case], trace_path if traced_kind else "",
                max(10.0, WORKER_TIMEOUT_S - elapsed),
            )
            if "error" in result:
                errors.append(result["error"])
                attempted += 1
                failed += 1
                continue
            result.update(case=case, pair=pair)
            speed = REFERENCE_S / result["reference_s"]
            result["setup_s"] = result["setup_wall_s"] * speed
            result["solve_s"] = result["solve_wall_s"] * speed
            tried, wrong = wrong_answers(workload, result, cases[case][1])
            attempted += tried
            failed += wrong
            if traced_kind:
                result["layers"] = spans.layer_table(trace_path)
                traced.append(result)
            else:
                untraced.append(result)
        pair += 1
        elapsed = time.perf_counter() - started
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED_WORKERS)
        if elapsed >= LAST_START_S or (elapsed >= seconds and enough) or (errors and not untraced):
            break
    for error in errors:
        print(f"  worker failure: {error}")
    if not untraced or (trace and not traced):
        return None

    everyone = untraced + traced
    digest = source_digest()
    problems = []
    for case in sorted({result["case"] for result in everyone}):
        problems += check_counts(
            f"{workload}:{seed}:{case}:source={digest}:input={input_digest(texts[case])}",
            [result["counts"] for result in everyone if result["case"] == case],
        )
    attempted += len(everyone)
    failed += len(problems)
    config = everyone[0]["config"]
    baseline = {k: config[k] for k in DEFAULT_CONFIG} == DEFAULT_CONFIG

    print(f"== {workload}  seed={seed}  scale={scale}  trace={int(trace)}  inputs={len(cases)}  "
          f"processes={len(untraced)} untraced + {len(traced)} traced")
    print("  config: " + " ".join(f"{k}={v}" for k, v in config.items())
          + f" nproc={os.cpu_count()}"
          + ("" if baseline else "  ** NOT THE DEFAULT CONFIGURATION: not a baseline **"))
    print("  model counts (input 0): "
          + " ".join(f"{k}={v}" for k, v in everyone[0]["counts"].items())
          + ("  (repeat exactly)" if not problems else ""))
    for problem in problems:
        print(f"  ** model counts do not repeat: {problem}")

    if trace:
        metrics = trace_metrics(untraced, traced)
        units = per_layer_units()
        print_layers(metrics, traced[0]["layers"]["unresolved"])
    else:
        metrics = {
            "setup_s": statistics.median(result["setup_s"] for result in untraced),
            "solve_s": central([result["solve_s"] for result in untraced]),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in untraced),
        }
        units = dict(END_TO_END)
        detail = {
            "setup_wall_s": statistics.median(result["setup_wall_s"] for result in untraced),
            "solve_wall_s": central([result["solve_wall_s"] for result in untraced]),
            "reference_s": statistics.median(result["reference_s"] for result in untraced),
        }
        if workload == "serve_stream":
            detail.update(serve_detail(untraced, cases[0]))
        print_table(metrics, detail, len(untraced))
        print("  solve_s per process: "
              + " ".join(f"{result['solve_s']:.3f}" for result in untraced))
    print(f"  error_rate  {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def trace_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for layer in spans.LAYERS:
        for field in ("self_s", "calls", "share"):
            metrics[f"{layer}.{field}"] = statistics.median(
                result["layers"]["layers"][layer][field] for result in traced
            )
    counts = traced[0]["layers"]["counts"]
    for count in spans.COUNTS:
        metrics[count] = counts[count]
    untraced_by_pair = {result["pair"]: result for result in untraced}
    metrics["trace_overhead_frac"] = statistics.median(
        result["solve_s"] / untraced_by_pair[result["pair"]]["solve_s"]
        for result in traced if result["pair"] in untraced_by_pair
    ) - 1.0
    metrics["trace.unresolved"] = len(traced[0]["layers"]["unresolved"])
    return metrics


def print_table(metrics: dict, detail: dict, samples: int) -> None:
    units = {**END_TO_END, **WALL_DETAIL, **SERVE_DETAIL}
    print(f"  {'metric':<22}{'value':>14}  unit   ({samples} processes)")
    for name, value in metrics.items():
        print(f"  {name:<22}{value:>14.6g}  {units[name]}")
    print("  -- not bounded --")
    for name, value in detail.items():
        print(f"  {name:<22}{value:>14.6g}  {units[name]}")


def print_layers(metrics: dict, unresolved: list[str]) -> None:
    print(f"  {'layer':<16}{'self_s':>10}{'calls':>10}{'share':>8}")
    for layer in sorted(spans.LAYERS, key=lambda name: -metrics[f"{name}.self_s"]):
        print(f"  {layer:<16}{metrics[layer + '.self_s']:>10.4f}"
              f"{metrics[layer + '.calls']:>10.0f}{metrics[layer + '.share']:>8.1%}")
    for count in spans.COUNTS:
        print(f"  {count:<28}{metrics[count]}")
    print(f"  trace_overhead_frac  {metrics['trace_overhead_frac']:.4f}")
    print(f"  trace.unresolved     {len(unresolved)}")
    for entry in unresolved:
        print(f"  ** unresolved entry point: {entry}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every worker it starts, so every
    # measurement of a run is taken on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        if summary is None:
            print(f"perfbench: {name} produced no result", file=sys.stderr)
            return 1
        summaries[name] = summary
    if len(summaries) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, s in summaries.items() for metric, value in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
