"""Tests of the benchmark itself: seeded inputs, wrapper hygiene, traced output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The workloads run
here at a few operations each, with every size shrunk, so the tests check
the machinery, not the numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from perfbench import inputs as gen
from perfbench import measure
from perfbench import workloads as wl
from perfbench.tracing import Tracer, installed
from perfbench.workloads import WORKLOADS, Select, Stream, StreamSharded, Train

BENCHMARK = measure.SPEC


class TinyTrain(Train):
    FAMILIES = ("ECG", "IOPS")
    N_HISTORY, N_HELDOUT, LENGTH = 2, 2, 200
    EPOCHS = 2
    FITS_PER_SECOND = 0.0


class TinySelect(Select):
    LENGTH, TEACHER_PER_FAMILY, TEACHER_LENGTH = 400, 1, 200
    REQUESTS_PER_SECOND = 0.0
    WARMUP_REQUESTS = 1


class TinyStream(Stream):
    FAMILIES = ("ECG", "IOPS")
    SEGMENT_LENGTH, HISTORY, TEACHER_PER_FAMILY, TEACHER_LENGTH = 200, 192, 1, 200
    TICKS_PER_SECOND = 0.0


class TinySharded(StreamSharded):
    N_STREAMS, CHECK_STREAMS = 6, 3
    TEACHER_PER_FAMILY, TEACHER_LENGTH = 1, 200
    N_TRANSFER, N_CALIBRATION, TRANSFER_LENGTH = 2, 2, 400
    DISTILL_EPOCHS = 1
    TICKS_PER_SECOND = 0.0


TINY = {"train": TinyTrain, "select": TinySelect, "stream": TinyStream,
        "stream-sharded": TinySharded}


def _shrink(cls, monkeypatch):
    """Two operations and one set-up per pass for the tiny runs."""
    original = wl._n_ops
    monkeypatch.setattr(wl, "_n_ops", lambda s, r, m: original(s, r, 2))
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    return cls


def test_tiny_classes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    cls = TINY[name]
    first = gen.digest(cls(7, 1.0).inputs)
    assert first == gen.digest(cls(7, 1.0).inputs)
    assert first != gen.digest(cls(8, 1.0).inputs)


def _wrapped_targets():
    """Every attribute any workload's traced run replaces, with its value now."""
    targets = []
    for cls in WORKLOADS.values():
        for patch in cls.patches(cls.__new__(cls)):
            targets.append((patch.owner, patch.attr, getattr(patch.owner, patch.attr)))
    return targets


def test_installed_restores_every_original():
    tracer = Tracer()
    before = _wrapped_targets()
    patches = [p for cls in WORKLOADS.values() for p in cls.patches(cls.__new__(cls))]
    with installed(tracer, patches):
        assert all(getattr(owner, attr) is not value for owner, attr, value in before)
    assert all(getattr(owner, attr) is value for owner, attr, value in before)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = _wrapped_targets()
    seen = []

    class Probe(TinySelect):
        def run(self, state, op):
            seen.append(all(getattr(owner, attr) is value
                            for owner, attr, value in originals))
            return super().run(state, op)

    def no_wrap(self, *args, **kwargs):
        raise AssertionError("an untraced run created a wrapper")

    monkeypatch.setattr(Tracer, "wrap", no_wrap)
    result, _ = measure.untraced_run(_shrink(Probe, monkeypatch)(3, 1.0))
    assert seen and all(seen)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.fixture(scope="module")
def traced_runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {name: measure.traced_run(_shrink(cls, monkeypatch)(5, 1.0))
                for name, cls in TINY.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_correct_and_complete(traced_runs, name):
    result, report, spans = traced_runs[name]
    assert result["correct"] and result["failed"] == 0, report
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0
    assert spans and all(s.end >= s.start for s in spans)
    assert set(range(report["operations"])) <= {s.op for s in spans}


def test_every_per_layer_metric_is_measured_by_some_workload(traced_runs):
    measured = set()
    for _, report, _ in traced_runs.values():
        measured.update(report["layers_measured"])
    assert measured == {m["name"] for m in BENCHMARK["per_layer"]}


def test_stop_children_leaves_no_process_behind():
    # In a fresh interpreter: shared memory starts the resource tracker,
    # and a forked child stands in for a shard nobody closed.
    script = textwrap.dedent("""
        import json, multiprocessing, time
        from multiprocessing import shared_memory
        from perfbench import run
        shm = shared_memory.SharedMemory(create=True, size=64)
        shm.close(); shm.unlink()
        child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,),
                                                           daemon=True)
        child.start()
        started = run._child_pids()
        run.stop_children()
        print(json.dumps({"started": started, "left": run._child_pids()}))
    """)
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                         text=True, timeout=60, check=True)
    pids = json.loads(out.stdout.splitlines()[-1])
    assert len(pids["started"]) == 2 and pids["left"] == []
    assert not any(Path(f"/proc/{pid}").exists() for pid in pids["started"])


def test_sharded_run_gives_the_client_its_cores_back(monkeypatch):
    cores = os.sched_getaffinity(0)
    result, _ = measure.untraced_run(_shrink(TinySharded, monkeypatch)(3, 1.0))
    assert result["correct"]
    assert os.sched_getaffinity(0) == cores
