"""Per-layer tracing from outside the program.

The traced pass of the benchmark replaces selected module and class
attributes of ``repro`` with thin timing wrappers, runs the same ops as
the untraced pass, and puts every original back.  Each wrapper is a span:
its *self time* is its wall time minus the wall time of wrapped calls it
made on the same thread, so the self times of all spans add up to the
part of an op the wrappers cover, without double counting.

A wrapper replaces the attribute each caller actually resolves: a
function imported with ``from x import f`` is wrapped where the caller
looks it up (``("repro.core.flow", "prune_buffers")``), a method on the
class that defines it.  Only modules already imported are instrumented,
so installing the wrappers never adds import work to an op.

This module uses only the standard library: the traced CLI child imports
it before ``repro``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", object], None]


def _count_len(counter: str) -> Hook:
    def hook(tracer: "Tracer", result: object) -> None:
        tracer.count(counter, len(result))

    return hook


def _count_infeasible(tracer: "Tracer", result: object) -> None:
    tracer.count("core.infeasible", 0 if result.feasible else 1)


def _count_cache(tracer: "Tracer", result: object) -> None:
    # The scheduler treats a ``None`` lookup as a miss (engine/scheduler.py).
    tracer.count("engine.cache_lookups", 1)
    tracer.count("engine.cache_hits", 0 if result is None else 1)


_QUEUE_METHODS = (
    "submit", "job", "jobs", "require", "claim", "heartbeat", "complete", "fail",
    "depth", "refresh_depth_gauges",
)

#: ``(span, module, attribute path, hook)``.  The span name's prefix up to
#: the first dot is the layer.  Several attributes may share one span.
WRAPS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("cli.self", "repro.cli", "main", None),
    ("circuit.build", "repro.circuit.suite", "build_suite_circuit", None),
    ("circuit.generate", "repro.circuit.suite", "generate_sequential_circuit", None),
    ("circuit.place", "repro.circuit.design", "CircuitDesign.from_netlist", None),
    ("timing.annotate", "repro.timing.graph", "TimingGraph.__init__", None),
    ("timing.propagate", "repro.timing.constraints", "all_ff_pair_delay_forms",
     _count_len("timing.ff_pairs")),
    ("timing.extract", "repro.timing.constraints", "extract_constraint_graph", None),
    ("timing.skew", "repro.timing.skew", "hold_aware_random_skews", None),
    ("timing.skew", "repro.timing.skew", "apply_skews", None),
    ("core.compile", "repro.core.compiled", "CompiledConstraintSystem.from_constraint_graph",
     None),
    ("core.solve", "repro.core.sample_solver", "PerSampleSolver.solve", _count_infeasible),
    ("core.bellman_ford", "repro.core.sample_solver", "solve_difference_system", None),
    ("core.prune", "repro.core.flow", "prune_buffers", None),
    ("core.bounds", "repro.core.flow", "assign_lower_bounds", None),
    ("core.bounds", "repro.core.flow", "outside_window_fraction", None),
    ("core.group", "repro.core.flow", "group_buffers", None),
    ("milp.solve", "repro.milp.model", "Model.solve", None),
    ("milp.to_arrays", "repro.milp.model", "Model.to_arrays", None),
    ("variation.sample", "repro.variation.sampling", "MonteCarloSampler.sample", None),
    ("variation.sample", "repro.core.compiled", "CompiledConstraintSystem.sample", None),
    ("tuning.configure", "repro.tuning.configurator",
     "PostSiliconConfigurator.configure_sample", None),
    ("tuning.bellman_ford", "repro.tuning.configurator", "solve_difference_system", None),
    ("engine.overhead", "repro.core.flow", "BufferInsertionFlow.run", None),
    ("engine.overhead", "repro.engine.cache", "ResultCache.get", _count_cache),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run", None),
    ("campaign.status", "repro.campaign.runner", "campaign_status", None),
    ("campaign.report", "repro.campaign.report", "build_report", None),
    ("campaign.report", "repro.campaign.report", "format_report", None),
    ("store.history", "repro.store.base", "StoreBackend.history",
     _count_len("store.events_read")),
    ("store.append", "repro.store.base", "StoreBackend.append", None),
    ("store.append", "repro.store.sqlite", "_SqliteTransaction.append", None),
    ("store.append", "repro.store.jsonl", "_JsonlTransaction.append", None),
    ("store.read", "repro.store.base", "StoreBackend.load", None),
    ("store.read", "repro.store.base", "StoreBackend.get", None),
    *(("service.queue", "repro.service.queue", f"JobQueue.{name}", None)
      for name in _QUEUE_METHODS),
    ("service.api", "repro.service.api", "CampaignService.submit", None),
    ("service.api", "repro.service.api", "CampaignService.job_status", None),
    ("service.api", "repro.service.api", "CampaignService.report", None),
    ("service.worker_job", "repro.service.worker", "CampaignWorker.run_job", None),
)

#: Layers in report order (the prefixes of the span names above).
LAYERS = ("cli", "circuit", "timing", "core", "milp", "variation", "tuning", "engine",
          "campaign", "store", "service")

_MARK = "__perfbench_span__"


class Tracer:
    """Collects per-span self time, call counts and hook counters.

    Spans are recorded only while :attr:`recording` is set, so checks
    that call wrapped functions between ops stay out of the figures.
    """

    def __init__(self) -> None:
        self.recording = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Add a :meth:`snapshot` taken in another process."""
        with self._lock:
            for name, value in snapshot["seconds"].items():
                self.seconds[name] += value
            self.calls.update(snapshot["calls"])
            self.counts.update(snapshot["counts"])

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                    "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    def _wrap(self, span: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.seconds[span] += elapsed - children
                    tracer.calls[span] += 1
            if hook is not None:
                hook(tracer, result)
            return result

        setattr(wrapper, _MARK, span)
        return wrapper

    def install(self) -> int:
        """Wrap every attribute of :data:`WRAPS` whose module is imported.

        Returns the number of attributes wrapped.
        """
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for span, module_name, path, hook in WRAPS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, name = _resolve(module, path)
            raw = vars(owner)[name]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(span, raw.__func__, hook))
            else:
                replacement = self._wrap(span, raw, hook)
            setattr(owner, name, replacement)
            self._installed.append((owner, name, raw))
        return len(self._installed)

    def uninstall(self) -> None:
        """Put every original back (:func:`find_wrappers` checks it)."""
        for owner, name, raw in reversed(self._installed):
            setattr(owner, name, raw)
        self._installed = []


def _resolve(module: object, path: str) -> Tuple[object, str]:
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{owner!r} defines no attribute {name!r} to wrap")
    return owner, name


def _is_wrapper(raw: object) -> bool:
    return hasattr(getattr(raw, "__func__", raw), _MARK)


def find_wrappers() -> List[str]:
    """Attributes of :data:`WRAPS` that currently hold a wrapper."""
    found = []
    for _, module_name, path, _ in WRAPS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner, name = _resolve(module, path)
        if _is_wrapper(vars(owner)[name]):
            found.append(f"{module_name}.{path}")
    return found
