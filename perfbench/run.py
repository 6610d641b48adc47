"""Benchmark of the buffer-insertion reproduction: three workloads, one entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_s9234 --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the ops
untraced and again with the per-layer wrappers of ``layers.py`` installed
and reports the per-layer metrics.  The last line of stdout is the result
object; the line before it records the host calibration time of the run.
Metric names and the workloads' reasons are in ``BENCHMARK.json``; the
layer-to-metric map is in ``perfbench/LAYERS.md``.

The op count of a run is fixed by ``--seconds`` (never by the clock), and
the op seeds are a fixed panel ``1..n`` in an order the workload seed
picks, so every run does the same work and the Table-I quality metrics
repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from layers import LAYERS, Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS, CliS13207, OpResult, Workload, quality_row  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

Metrics = Dict[str, Tuple[float, str]]


# ----------------------------------------------------------------------
def host_ref() -> float:
    """Median wall time of a fixed pure-Python kernel (host calibration)."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        x = 1
        for i in range(150_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 1023] = table.get(x & 1023, 0) + i
        sorted(table.items())
        times.append(time.perf_counter() - start)
    return median(times)


def op_seeds(workload_seed: int, n_ops: int) -> List[int]:
    """The op seeds ``1..n_ops`` in the order the workload seed picks."""
    return random.Random(workload_seed).sample(range(1, n_ops + 1), n_ops)


def n_ops_for(workload: Workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_op_s))


def tail(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    ops beyond it; the maximum (percentile 100) when there are too few ops."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def run_op(workload: Workload, seed: int, tracer: Optional[Tracer] = None) -> OpResult:
    gc.collect()
    try:
        if tracer is not None:
            tracer.recording = True
        try:
            result = workload.op(seed)
        finally:
            if tracer is not None:
                tracer.recording = False
        workload.check(result)
    except Exception as error:  # noqa: BLE001 - a failing op is counted, not fatal
        return OpResult(seed, errors=[f"{type(error).__name__}: {error}"])
    return result


def quality_metrics(results: List[OpResult]) -> Metrics:
    rows = [row for result in results if result.ok for row in result.quality]
    columns = (("yield_gain_pct", "%"), ("n_buffers", "count"), ("avg_range_steps", "steps"))
    return {
        name: (fmean(row[i] for row in rows) if rows else 0.0, unit)
        for i, (name, unit) in enumerate(columns)
    }


# ----------------------------------------------------------------------
def end_to_end(workload: Workload, setup_times: List[float], results: List[OpResult]) -> Metrics:
    walls = [r.seconds for r in results if r.ok]
    metrics: Metrics = {
        "setup_s": (median(setup_times), "s"),
        "op_s": (median(walls) if walls else 0.0, "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    metrics.update(quality_metrics(results))
    return metrics


def _import_probe(modules: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + modules
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def cli_probes(workload: CliS13207, untraced: List[OpResult]) -> Dict[str, float]:
    """Probes of the layers only the CLI workload pays for."""
    import operator

    from repro.engine import create_executor

    base = "repro.cli, repro.circuit.suite, repro.core, repro.engine"
    imports, scipy = [], []
    for _ in range(3):
        plain = _import_probe(base)
        imports.append(plain)
        scipy.append(_import_probe(base + ", repro.milp.backends") - plain)
    start = time.perf_counter()
    executor = create_executor("processes", 2)
    try:
        list(executor.map_chunks(operator.is_not, [1, 2]))
        pool_start = time.perf_counter() - start
    finally:
        executor.close()
    first = untraced[0]
    speedup = workload.serial_flow_seconds(first.seed) / first.latencies["flow_s"]
    return {"cli.import_s": median(imports), "cli.scipy_import_s": median(scipy),
            "engine.pool_start_s": pool_start, "engine.process_speedup": speedup}


def per_layer(snapshot: Dict[str, Dict[str, float]], untraced: List[OpResult],
              traced: List[OpResult], probes: Dict[str, float]) -> Metrics:
    seconds, calls, counts = snapshot["seconds"], snapshot["calls"], snapshot["counts"]
    n = max(1, len(traced))
    traced_wall = sum(r.seconds for r in traced) or 1.0
    metrics: Metrics = {}

    def per_op_s(name: str) -> None:
        metrics[name] = (seconds.get(name[:-2], 0.0) / n, "s")

    def per_op_count(name: str, value: float) -> None:
        metrics[name] = (value / n, "count")

    for name in ("cli.import_s", "cli.scipy_import_s", "engine.pool_start_s"):
        metrics[name] = (probes.get(name, 0.0), "s")
    metrics["engine.process_speedup"] = (probes.get("engine.process_speedup", 0.0), "ratio")
    for name in ("cli.op_import_s", "cli.self_s", "circuit.build_s", "circuit.generate_s",
                 "circuit.place_s", "timing.annotate_s", "timing.propagate_s",
                 "timing.extract_s", "timing.skew_s", "core.compile_s", "core.solve_s",
                 "core.bellman_ford_s", "core.prune_s", "core.bounds_s", "core.group_s",
                 "milp.solve_s", "milp.to_arrays_s", "variation.sample_s", "tuning.configure_s",
                 "tuning.bellman_ford_s", "engine.overhead_s", "campaign.run_s",
                 "campaign.status_s", "campaign.report_s", "store.history_s", "store.append_s",
                 "store.read_s", "service.queue_s", "service.api_s", "service.worker_job_s"):
        per_op_s(name)
    for name in ("core.solve", "core.bellman_ford", "milp.solve", "tuning.configure",
                 "tuning.bellman_ford", "store.history", "store.append", "service.queue"):
        per_op_count(f"{name}_calls", calls.get(name, 0))
    per_op_count("timing.ff_pairs", counts.get("timing.ff_pairs", 0))
    per_op_count("store.events_read", counts.get("store.events_read", 0))
    metrics["core.infeasible_frac"] = (
        counts.get("core.infeasible", 0) / max(1, calls.get("core.solve", 0)), "ratio")
    metrics["engine.cache_hit_frac"] = (
        counts.get("engine.cache_hits", 0) / max(1, counts.get("engine.cache_lookups", 0)),
        "ratio")
    for key in ("submit", "status", "report", "dedupe"):
        values = [r.latencies[key] for r in untraced if key in r.latencies]
        metrics[f"service.{key}_ms"] = (1000.0 * median(values) if values else 0.0, "ms")
    for layer in LAYERS:
        total = sum(v for span, v in seconds.items() if span.split(".")[0] == layer)
        metrics[f"layer.{layer}_pct"] = (100.0 * total / traced_wall, "%")
    metrics["trace.covered_pct"] = (100.0 * sum(seconds.values()) / traced_wall, "%")
    plain = [r.seconds for r in untraced if r.ok]
    with_trace = [r.seconds for r in traced if r.ok]
    overhead = 100.0 * (median(with_trace) / median(plain) - 1.0) if plain and with_trace else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics.update(op_stats(untraced))
    return metrics


def op_stats(results: List[OpResult]) -> Metrics:
    ok = [r for r in results if r.ok]
    percentile, value = tail([r.seconds for r in ok] or [0.0])
    return {
        "op_count": (float(len(results)), "count"),
        "op_tail_s": (value, "s"),
        "op_tail_pct": (percentile, "%"),
        "op_cpu_s": (median([r.cpu_seconds for r in ok] or [0.0]), "s"),
    }


# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Tuple[dict, dict]:
    """One benchmark run; returns the result object and the host record."""
    ref_before = host_ref()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    seeds = op_seeds(seed, n_ops_for(workload, seconds))
    errors: List[str] = []
    if not trace:
        results = [run_op(workload, s) for s in seeds]
        if results[0].ok:
            results[0].errors += workload.final_check(results)
        attempted = results
        metrics = end_to_end(workload, setup_times, results)
    else:
        seeds = seeds[: math.ceil(len(seeds) / 2)]
        untraced = [run_op(workload, s) for s in seeds]
        if workload.stateful:
            workload.setup()
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            traced = [run_op(workload, s, tracer) for s in seeds]
        finally:
            workload.tracer = None
            tracer.uninstall()
        leftover = find_wrappers()
        if leftover:
            errors.append(f"wrappers left installed: {leftover}")
        for plain, with_trace in zip(untraced, traced):
            if plain.ok and with_trace.ok and plain.output != with_trace.output:
                with_trace.errors.append(f"traced output of seed {plain.seed} differs")
        if untraced[0].ok:
            untraced[0].errors += workload.final_check(untraced)
        probes = cli_probes(workload, untraced) if isinstance(workload, CliS13207) else {}
        attempted = untraced + traced
        metrics = per_layer(tracer.snapshot(), untraced, traced, probes)
    ref_after = host_ref()
    if trace:
        metrics["host.ref_s"] = ((ref_before + ref_after) / 2.0, "s")
        metrics["host.ref_drift_pct"] = (100.0 * (ref_after / ref_before - 1.0), "%")
    failed = sum(1 for r in attempted if not r.ok)
    for r in attempted:
        errors += [f"op seed {r.seed}: {e}" for e in r.errors]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    host = {"host.ref_s_before": ref_before, "host.ref_s_after": ref_after,
            "op_seconds": [round(r.seconds, 4) for r in attempted], "errors": errors}
    return result, host


def run_in_workdir(name: str, size: str, body):
    """Run ``body(workload)`` with a scratch directory inside the checkout."""
    workdir = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    workload = WORKLOADS[name](ROOT, workdir, size=size)
    try:
        return body(workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


# ----------------------------------------------------------------------
def selftest() -> int:
    """One tiny op per workload, traced and untraced; every metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload_spec in spec["workloads"]:
        name = workload_spec["name"]
        for trace in (0, 1):
            result, host = run_in_workdir(
                name, "tiny", lambda w: run(w, 1, 2 * w.nominal_op_s, bool(trace)))
            got = set(result["metrics"])
            _expect(got == wanted[trace], f"{name} trace={trace}: metrics {got ^ wanted[trace]}")
            _expect(result["correct"], f"{name} trace={trace}: {host['errors']}")
            print(f"selftest: {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops ok", flush=True)
    check_cli_quality()
    print("selftest: ok")
    return 0


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def check_cli_quality() -> None:
    """The quality read from the CLI's JSON equals an in-process flow's."""
    from repro.circuit.suite import build_suite_circuit
    from repro.core import BufferInsertionFlow, FlowConfig

    def body(workload: CliS13207):
        cli = run_op(workload, 7)
        _expect(cli.ok, str(cli.errors))
        design = build_suite_circuit("s13207", scale=0.05, seed=7)
        config = FlowConfig(n_samples=20, n_eval_samples=40, seed=7)
        flow = BufferInsertionFlow(design, config).run()
        local = OpResult(7, quality=[quality_row(flow.original_yield, flow.improved_yield,
                                                 flow.plan.n_physical_buffers,
                                                 flow.plan.average_range_steps)])
        _expect(quality_metrics([cli]) == quality_metrics([local]),
                f"CLI quality {cli.quality} differs from the in-process {local.quality}")

    run_in_workdir("cli_s13207", "tiny", body)
    print("selftest: CLI quality equals the in-process flow's", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="one tiny op per workload; check every metric is reported")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result, host = run_in_workdir(
        args.workload, "full",
        lambda w: run(w, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
