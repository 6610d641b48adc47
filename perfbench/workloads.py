"""The benchmark's three workloads.

Each workload has a set-up (repeatable: every call builds a complete,
fresh set-up and drops the previous one), an op timed by the workload
itself, a per-op correctness check run outside the timed region, and an
end-of-run check.  ``size="tiny"`` shrinks every input so the self-test
runs one op of each in seconds.

* ``solve_s9234`` — one ``BufferInsertionFlow.run()`` on the full-size
  s9234 at the ``FlowConfig`` defaults.  Set-up builds and compiles the
  design and runs a small untimed flow, which pays the lazy ``scipy``
  import of the first LP call.
* ``cli_s13207`` — one cold ``python -m repro.cli insert`` subprocess on
  the full-size s13207, timed from spawn to parsed stdout.  Set-up runs a
  small untimed invocation, which compiles the bytecode the op loads.
* ``service_history2k`` — one closed-loop client session against
  ``repro serve`` over a ``sqlite:`` queue that already holds 2000
  completed jobs: submit a fresh campaign, drain it with a worker, read
  its status and report, and re-submit it.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Seed of the designs the in-process workloads build in set-up.
DESIGN_SEED = 1
#: Seed of the untimed warm-up op of every set-up; no op uses it.
WARM_SEED = 999_983


@dataclass
class OpResult:
    """One op: its timing, its quality rows and what its checks found."""

    seed: int
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: ``(yield gain in %, physical buffers, average range in steps)`` per plan.
    quality: List[Tuple[float, float, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Canonical bytes of the op's output, compared between passes.
    output: bytes = b""
    latencies: Dict[str, float] = field(default_factory=dict)
    raw: object = None

    @property
    def ok(self) -> bool:
        return not self.errors


def quality_row(original_yield: float, improved_yield: float, n_physical: float,
                avg_range: float) -> Tuple[float, float, float]:
    """``(yield gain in %, physical buffers, average range in steps)`` of one plan."""
    return (100.0 * (improved_yield - original_yield), float(n_physical), float(avg_range))


def _max_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    name = ""
    #: Typical op wall time on a 2-CPU host; fixes the op count of a run.
    nominal_op_s = 1.0
    #: The op runs in a child process (peak RSS and CPU come from children).
    in_child = False
    #: An op changes state the next op with the same seed would see, so
    #: re-running a seed needs a fresh set-up.
    stateful = False

    def __init__(self, root: Path, workdir: Path, size: str = "full") -> None:
        self.root = root
        self.workdir = workdir
        self.tiny = size == "tiny"
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, seed: int) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> None:
        """Fill in the op's quality and errors (untimed)."""

    def final_check(self, results: List[OpResult]) -> List[str]:
        return []

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _max_rss_mb(resource.RUSAGE_CHILDREN if self.in_child else resource.RUSAGE_SELF)


# ----------------------------------------------------------------------
class SolveS9234(Workload):
    name = "solve_s9234"
    nominal_op_s = 2.6

    def _config(self, seed: int, warm: bool = False):
        from repro.core import FlowConfig

        if self.tiny:
            return FlowConfig(n_samples=40, n_eval_samples=80, seed=seed)
        if warm:
            return FlowConfig(n_samples=100, n_eval_samples=200, seed=seed)
        return FlowConfig(seed=seed)

    def setup(self) -> None:
        from repro.circuit.suite import build_suite_circuit
        from repro.core import BufferInsertionFlow, ensure_compiled_system

        design = build_suite_circuit("s9234", scale=0.1 if self.tiny else 1.0, seed=DESIGN_SEED)
        ensure_compiled_system(design)
        BufferInsertionFlow(design, self._config(WARM_SEED, warm=True)).run()
        self.design = design

    def _flow(self, seed: int):
        from repro.core import BufferInsertionFlow

        return BufferInsertionFlow(self.design, self._config(seed)).run()

    def op(self, seed: int) -> OpResult:
        start, cpu = time.perf_counter(), time.process_time()
        flow = self._flow(seed)
        return OpResult(seed, time.perf_counter() - start, time.process_time() - cpu, raw=flow)

    def check(self, result: OpResult) -> None:
        flow, result.raw = result.raw, None
        plan = flow.plan
        result.quality.append(quality_row(flow.original_yield, flow.improved_yield,
                                          plan.n_physical_buffers, plan.average_range_steps))
        result.output = _plan_bytes(plan)

    def final_check(self, results: List[OpResult]) -> List[str]:
        first = results[0]
        again = _plan_bytes(self._flow(first.seed).plan)
        if again != first.output:
            return [f"re-running seed {first.seed} gave a different plan"]
        return []


def _plan_bytes(plan) -> bytes:
    return json.dumps(plan.as_dict(), sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
class CliS13207(Workload):
    name = "cli_s13207"
    nominal_op_s = 3.6
    in_child = True

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.workdir)
        return env

    def _args(self, seed: int, executor: Optional[str] = None, small: bool = False) -> List[str]:
        small = small or self.tiny
        scale, samples, evals = ("0.05", "20", "40") if small else ("1.0", "100", "200")
        args = ["insert", "--circuit", "s13207", "--scale", scale, "--samples", samples,
                "--eval-samples", evals, "--jobs", "2", "--json", "--seed", str(seed)]
        if executor is not None:
            args += ["--executor", executor]
        return args

    def _run(self, args: List[str], trace_out: Optional[Path] = None
             ) -> Tuple[subprocess.CompletedProcess, Optional[dict], float]:
        """Run one CLI invocation; ``(process, parsed stdout, seconds)``."""
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                       str(trace_out), *args]
        start = time.perf_counter()
        # Own session, so a timeout also stops the CLI's pool workers.
        with subprocess.Popen(command, cwd=self.root, env=self._env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=150)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                raise
        proc = subprocess.CompletedProcess(command, child.returncode, stdout, stderr)
        payload = json.loads(stdout) if proc.returncode == 0 else None
        return proc, payload, time.perf_counter() - start

    def setup(self) -> None:
        proc, _, _ = self._run(self._args(WARM_SEED, small=True))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up invocation failed: {proc.stderr.decode()[-2000:]}")

    def op(self, seed: int) -> OpResult:
        trace_out = None if self.tracer is None else self.workdir / f"trace-{seed}.json"
        cpu = _children_cpu()
        try:
            proc, payload, seconds = self._run(self._args(seed), trace_out)
        except json.JSONDecodeError as error:
            return OpResult(seed, errors=[f"stdout is not JSON: {error}"])
        result = OpResult(seed, seconds, _children_cpu() - cpu, raw=(proc, payload))
        if trace_out is not None and trace_out.exists():
            self.tracer.merge(json.loads(trace_out.read_text()))
            trace_out.unlink()
        return result

    def check(self, result: OpResult) -> None:
        if result.raw is None:
            return
        (proc, payload), result.raw = result.raw, None
        if proc.returncode != 0:
            result.errors.append(f"exit code {proc.returncode}: {proc.stderr.decode()[-500:]}")
            return
        summary = payload["summary"]
        if summary["improved_yield"] < summary["original_yield"]:
            result.errors.append("improved yield is below the original yield")
        result.quality.append(quality_row(summary["original_yield"], summary["improved_yield"],
                                          summary["n_physical_buffers"],
                                          summary["average_range_steps"]))
        result.latencies["flow_s"] = float(summary["runtime_seconds"])
        result.output = _cli_bytes(payload)

    def serial_flow_seconds(self, seed: int) -> float:
        """``runtime_seconds`` of the same invocation on the serial executor."""
        proc, payload, _ = self._run(self._args(seed, executor="serial"))
        if proc.returncode != 0:
            raise RuntimeError(f"serial invocation failed: {proc.stderr.decode()[-2000:]}")
        return float(payload["summary"]["runtime_seconds"])


def _cli_bytes(payload: dict) -> bytes:
    summary = {k: v for k, v in payload["summary"].items() if k != "runtime_seconds"}
    return json.dumps({**payload, "summary": summary}, sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
class ServiceHistory2k(Workload):
    name = "service_history2k"
    nominal_op_s = 1.0
    stateful = True

    def __init__(self, root: Path, workdir: Path, size: str = "full") -> None:
        super().__init__(root, workdir, size)
        self.history_jobs = 50 if self.tiny else 2000
        self.n_setups = 0
        self.server = None

    def _spec(self, name: str, seed: int):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(name=name, seed=seed, circuits=(("s9234", 0.05),),
                            sigmas=(0.0, 1.0), budgets=((24, 48),), baselines=())

    def _write_history(self, queue) -> None:
        from repro.service.queue import QUEUE_SCHEMA_VERSION, default_job_store_uri

        now = time.time()
        with queue.backend.transaction() as txn:
            for index in range(self.history_jobs):
                spec = self._spec(f"history-{index}", index)
                fingerprint = spec.fingerprint()
                at = now - self.history_jobs + index
                head = {"schema_version": QUEUE_SCHEMA_VERSION, "fingerprint": fingerprint}
                txn.append({**head, "event": "submit", "at_unix": at, "spec": spec.as_dict(),
                            "store": default_job_store_uri(queue.uri, spec.name, fingerprint),
                            "pool": None})
                txn.append({**head, "event": "lease", "at_unix": at, "worker": "history",
                            "deadline_unix": at + 60.0})
                txn.append({**head, "event": "complete", "at_unix": at, "worker": "history"})

    def setup(self) -> None:
        from repro.service import CampaignWorker, JobQueue, ServiceClient, build_server

        self.close()
        self.n_setups += 1
        queue_uri = f"sqlite:{self.workdir / f'setup{self.n_setups}' / 'queue.sqlite'}"
        self._write_history(JobQueue.open(queue_uri))
        self.server = build_server(queue_uri, port=0)
        host, port = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"http://{host}:{port}")
        self.worker = CampaignWorker(JobQueue.open(queue_uri), worker_id="perfbench-worker",
                                     executor="serial")
        warm = self.op(WARM_SEED)
        self.check(warm)
        if warm.errors:
            raise RuntimeError(f"set-up session failed: {warm.errors}")

    def op(self, seed: int) -> OpResult:
        payload = {"spec": self._spec(f"session-{seed}", seed).as_dict()}
        latencies = {}

        def timed(name, call, *args):
            start = time.perf_counter()
            value = call(*args)
            latencies[name] = time.perf_counter() - start
            return value

        start, cpu = time.perf_counter(), time.process_time()
        submitted = timed("submit", self.client.submit, payload)
        fingerprint = submitted["job"]["fingerprint"]
        drained = self.worker.run(exit_when_idle=True)
        status = timed("status", self.client.job, fingerprint)
        report = timed("report", self.client.report, fingerprint)
        again = timed("dedupe", self.client.submit, payload)
        seconds = time.perf_counter() - start
        return OpResult(seed, seconds, time.process_time() - cpu, output=report,
                        latencies=latencies, raw=(payload, submitted, drained, status, again))

    def check(self, result: OpResult) -> None:
        from repro.campaign.report import build_report, format_report
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore

        payload, submitted, drained, status, again = result.raw
        result.raw = None
        if not submitted["created"]:
            result.errors.append("a fresh spec was deduplicated")
        if drained.n_done != 1:
            result.errors.append(f"worker finished {drained.n_done} jobs, expected 1")
        if status["job"]["state"] != "done":
            result.errors.append(f"job state is {status['job']['state']!r}")
        if again["created"] is not False:
            result.errors.append("re-submitting the same spec created a job")
        spec = CampaignSpec.from_dict(payload["spec"])
        direct = build_report(spec, CampaignStore.open(status["job"]["store"]))
        if format_report(direct, "text").encode("utf-8") != result.output:
            result.errors.append("HTTP report differs from the report built from the store")
        if not direct.complete:
            result.errors.append("campaign report is incomplete")
        for row in direct.rows:
            result.quality.append(quality_row(row["original_yield"], row["improved_yield"],
                                              row["n_physical_buffers"],
                                              row["average_range_steps"]))

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10.0)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SolveS9234, CliS13207, ServiceHistory2k)}
