"""Timing, checking and reporting around one workload.

An untraced run sets the program up ``SETUP_REPEATS`` times (``setup_s`` is
the median), runs one untimed warm-up operation, then the workload's fixed
list of operations, each timed from the client side.  Every answer is then
checked against an independent reference; a mismatch or an exception
counts as a failed operation.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tracing import Span, SpanIndex, Tracer, installed
from .workloads import SETUP_REPEATS, Outcome, Workload

#: candidate tail percentiles, highest first; the tail reported is the
#: highest one with at least ``TAIL_MIN_BEYOND`` samples above it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: metric names and units come from the benchmark definition
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class PassResult:
    latencies: List[float]
    results: List[object]
    #: work units per second of each completed operation
    rates: List[float]
    #: peak RSS in MB during each operation (empty where it cannot be reset)
    peaks: List[float]

    @property
    def throughput(self) -> float:
        """Median per-operation rate: one stalled operation does not move it."""
        return float(np.median(self.rates)) if self.rates else 0.0


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with ``TAIL_MIN_BEYOND`` samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return None


def _vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set of one process (``VmHWM``), in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def _private_mb(pid: int) -> float:
    """Resident memory only this process maps (forked pages it has not
    written still belong to the parent and are counted there)."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return _vm_hwm_mb(pid)
    kb = sum(int(line.split()[1]) for line in text.splitlines()
             if line.startswith(("Private_Clean:", "Private_Dirty:")))
    return kb / 1024.0


def _release_set_up_memory() -> None:
    """Hand the heap that set-up freed back to the OS (glibc only).

    Set-up here trains models in the serving process, which the product's
    serving commands never do: they load a stored selector.  Without this,
    how much of that training heap stays resident varies from run to run
    by 100 MB, and ``peak_rss_mb`` would measure it.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _reset_peak() -> bool:
    """Restart this process's ``VmHWM`` from its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(op_peaks: Sequence[float], child_pids: Sequence[int]) -> float:
    """Median per-operation peak RSS, plus the private memory of live children.

    The peak is reset before each operation, so one unusually large
    operation does not decide the figure.  Children are shard processes
    whose state only grows while they serve, so their private memory at
    the end of the run is their peak.
    """
    own = float(np.median(op_peaks)) if op_peaks else _vm_hwm_mb()
    return own + sum(_private_mb(pid) for pid in child_pids)


def _pass(workload: Workload, state, tracer: Optional[Tracer] = None) -> PassResult:
    ops = workload.operations()
    latencies, results, rates, peaks = [], [], [], []
    gc.collect()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        resettable = _reset_peak()
        start = time.perf_counter()
        try:
            result = workload.run(state, op)
        except Exception:  # a failed operation, counted by the check
            traceback.print_exc(file=sys.stderr)
            result = None
        latency = time.perf_counter() - start
        if resettable:
            peaks.append(_vm_hwm_mb())
        latencies.append(latency)
        if result is not None:
            units, seconds = workload.work(op, result, latency)
            rates.append(units / seconds)
            result = workload.retain(result)
        results.append(result)
    if tracer is not None:
        tracer.op = None
    return PassResult(latencies, results, rates, peaks)


def _check(workload: Workload, state, run: PassResult) -> Outcome:
    outcome = workload.check(state, workload.operations(), run.results)
    outcome.failed_ops = min(outcome.failed_ops, len(run.results))
    return outcome


def _result(attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _set_up(workload: Workload) -> Tuple[object, List[float]]:
    """Set the program up ``SETUP_REPEATS`` times; keep the last one."""
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    return state, setups


def untraced_run(workload: Workload) -> Tuple[dict, dict]:
    """End-to-end metrics of one workload, with no wrapper installed."""
    workload.prepare()
    state, setups = _set_up(workload)
    try:
        _release_set_up_memory()
        workload.warmup(state)
        run = _pass(workload, state)
        peak = peak_rss_mb(run.peaks, workload.child_pids(state))
        outcome = _check(workload, state, run)
    finally:
        workload.close(state)

    n = len(run.latencies)
    ms = np.asarray(run.latencies) * 1000.0
    p_tail = tail_percentile(n)
    values = {
        "setup_s": float(np.median(setups)),
        "throughput_per_s": run.throughput,
        "latency_p50_ms": float(np.median(ms)),
        "latency_tail_ms": float(np.percentile(ms, p_tail if p_tail is not None else 50.0)),
        "peak_rss_mb": peak,
        "quality": outcome.quality,
    }
    result = _result(n, outcome.failed_ops,
                     {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "operations": n,
        "work_unit": workload.work_unit,
        "setup_s_each": setups,
        "latency_tail_percentile": p_tail,
        "latency_tail_samples_beyond": (int(n * (100.0 - p_tail) / 100.0)
                                        if p_tail is not None else 0),
        "check": outcome.notes,
    }
    return result, report


def traced_run(workload: Workload) -> Tuple[dict, dict, List[Span]]:
    """Per-layer metrics: the same operations untraced, then traced.

    The untraced pass is set up exactly as in :func:`untraced_run`, so
    ``obs.trace_overhead`` compares like with like (the first sharded
    service a process forks serves slower than later ones).
    """
    workload.prepare()
    state, _ = _set_up(workload)
    try:
        _release_set_up_memory()
        workload.warmup(state)
        plain = _pass(workload, state)
        plain_outcome = _check(workload, state, plain)
    finally:
        workload.close(state)

    tracer = Tracer()
    with installed(tracer, workload.patches()):
        tracer.op = "setup"
        state = workload.setup()
        try:
            with installed(tracer, workload.state_patches(state)):
                _release_set_up_memory()
                tracer.op = "warmup"
                workload.warmup(state)
                tracer.op = None
                before = workload.counters(state)
                traced = _pass(workload, state, tracer)
                after = workload.counters(state)
        except BaseException:
            workload.close(state)
            raise
    keys = list(range(len(traced.results)))
    index = SpanIndex(tracer.spans)
    try:
        traced_outcome = _check(workload, state, traced)
        layers = workload.layer_metrics(index, keys, state, traced.results,
                                        {k: after[k] - before[k] for k in before})
    finally:
        workload.close(state)
    layers["obs.trace_overhead"] = (plain.throughput / traced.throughput
                                    if traced.throughput else 0.0)
    unknown = set(layers) - set(LAYER_UNITS)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # every per-layer metric is reported; a layer this workload does not
    # exercise reads 0
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values.update(layers)
    result = _result(len(plain.results) + len(traced.results),
                     plain_outcome.failed_ops + traced_outcome.failed_ops,
                     {k: (v, LAYER_UNITS[k]) for k, v in values.items()})
    span_names = sorted({s.name for s in tracer.spans})
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "operations": len(keys),
        "layers_measured": sorted(layers),
        "throughput_untraced": plain.throughput,
        "throughput_traced": traced.throughput,
        # per-span-name median ms per operation (per-detector breakdown etc.)
        "span_ms_per_op": {name: 1000.0 * float(np.median(index.per_op([name], keys)))
                           for name in span_names},
    }
    return result, report, tracer.spans


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for s in spans:
            f.write(json.dumps({"name": s.name, "id": s.span_id, "parent": s.parent_id,
                                "op": s.op, "start": s.start, "end": s.end,
                                "attrs": s.attrs}, default=str) + "\n")


def fingerprint(thread_vars: Sequence[str]) -> Dict[str, object]:
    """Cores, BLAS and thread settings the numbers were measured with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }

