"""The four workloads: ``train``, ``select``, ``stream`` and ``stream-sharded``.

Each workload drives the program through its public API only, as a closed
loop from one client: the next operation starts when the previous one has
returned.  A workload knows how to set the program up, which fixed list of
operations one run executes, how much work each operation did, how to
check every answer against an independent reference, and which functions
a traced run wraps.

Why these four: ``train`` is the paper's learning framework (PISL + MKI +
PA) and the only workload on the autograd path; ``select`` is the serving
front end, dominated by the float teacher's forward pass, with repeated
series that hit the selection cache; ``stream`` is ``stream --score``,
dominated by detector re-scoring; ``stream-sharded`` is the multi-process
service on the int8 cascade, dominated by transport and small appends.
A change to one layer is exercised by at least one workload and bypassed
by another.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.cascade import CascadeRouter, calibrate_margin_threshold
from repro.core import TrainerConfig, kdselector_config
from repro.core.mki import MKIModule
from repro.core.pisl import PISLLoss
from repro.core.pruning import PAPruner, SamplePruner
from repro.data import build_selector_dataset
from repro.data.windows import extract_windows
from repro.detectors import make_default_model_set
from repro.distill import DistillConfig, distill_student, quantize_student, quantize_teacher
from repro.eval import Oracle, aggregate_window_probas, evaluate_selection, predict_for_series
from repro.eval.metrics import auc_pr
from repro.selectors import make_selector
from repro.selectors.nn_selector import NNSelector
from repro.service import ServiceConfig, ShardedService, make_engine_factory
from repro.service import transport
from repro.serving import SelectionService, ServingConfig
from repro.serving import service as serving_service
from repro.streaming import StreamEngine, StreamingConfig
from repro.streaming.buffer import StreamBuffer
from repro.streaming.scorer import OnlineScorer
from repro.streaming.selector import StreamingSelector
from repro.text import HashingTextEncoder

from . import inputs as gen
from .tracing import Patch, SpanIndex

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


def _median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _n_ops(seconds: float, per_second: float, minimum: int) -> int:
    """Fixed operation count for a run of nominal length ``seconds``.

    ``per_second`` is the rate measured on the 2-core reference box, so a
    run takes about ``seconds`` there; the count depends only on the
    requested length, never on how fast this run happens to go.
    """
    return max(minimum, int(round(seconds * per_second)))


def build_teacher(teacher: gen.TeacherInputs, window: int,
                  seed: int = gen.TEACHER_SEED) -> NNSelector:
    """Train the serving teacher (the paper's default ResNet selector)."""
    dataset = build_selector_dataset(teacher.records, teacher.performance,
                                     teacher.detector_names, window=window,
                                     stride=window, seed=seed)
    selector = make_selector("ResNet", window=window, n_classes=dataset.n_classes,
                             mid_channels=12, num_layers=2, seed=seed)
    selector.fit(dataset, config=TrainerConfig(epochs=2, batch_size=64, seed=seed))
    return selector


def _windows_attr(args, kwargs, result) -> Dict[str, float]:
    """Span attribute of a selector forward: the windows it classified."""
    return {"windows": float(len(result))}


@dataclass
class Outcome:
    """What a workload's correctness check found."""

    failed_ops: int
    quality: float
    notes: Dict[str, object]


class Workload:
    """Base class: a seeded input set plus the calls that drive the program."""

    name = ""
    #: unit of the work counted for ``throughput_per_s``
    work_unit = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Untimed prerequisites of set-up that a user does not repeat."""

    # the program's set-up, timed as ``setup_s``
    def setup(self):
        raise NotImplementedError

    def warmup(self, state) -> None:
        """One untimed operation before the measured ones."""

    def operations(self) -> List[object]:
        raise NotImplementedError

    def run(self, state, op) -> object:
        raise NotImplementedError

    def work(self, op, result, latency_s: float) -> Tuple[float, float]:
        """``(units of work, seconds they took)`` for one operation."""
        raise NotImplementedError

    def retain(self, result):
        """The part of an answer the check needs, kept until the run ends."""
        return result

    def check(self, state, ops, results) -> Outcome:
        raise NotImplementedError

    def child_pids(self, state) -> List[int]:
        return []

    def close(self, state) -> None:
        pass

    # tracing
    def patches(self) -> List[Patch]:
        """Wrappers installed before the traced set-up."""
        return []

    def state_patches(self, state) -> List[Patch]:
        """Wrappers that need the built program (installed after set-up)."""
        return []

    def counters(self, state) -> Dict[str, float]:
        """Program counters read before and after the traced pass."""
        return {}

    def layer_metrics(self, index: SpanIndex, keys: Sequence[int], state,
                      results, counter_delta: Dict[str, float]) -> Dict[str, float]:
        """Per-layer numbers of the traced pass; ``keys`` are its operation ids."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# train: one full KDSelector fit (PISL + MKI + PA) per operation
# --------------------------------------------------------------------------- #
@dataclass
class TrainState:
    dataset: object
    perf_heldout: np.ndarray
    detector_names: List[str]


@dataclass
class FitResult:
    fit_s: float
    picks: Tuple[int, ...]
    quality: float
    visits: int
    window_epochs: int


class Train(Workload):
    """Fit a fresh ResNet selector with PISL + MKI + PA, then select on held-out series."""

    name = "train"
    work_unit = "window-epochs"
    FAMILIES = ("ECG", "IOPS", "MGAB", "SMD")
    N_HISTORY, N_HELDOUT, LENGTH = 8, 16, 400
    DETECTOR_WINDOW = 16
    WINDOW, STRIDE = 64, 32
    EPOCHS, BATCH = 4, 32
    #: PA's SimHash width; the paper's 14 bits almost never collide on a
    #: few hundred windows, which would turn PA into InfoBatch
    LSH_BITS = 8
    FITS_PER_SECOND = 2.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.n = _n_ops(seconds, self.FITS_PER_SECOND, 20)
        self.inputs = gen.train_inputs(seed, self.FAMILIES, self.N_HISTORY, self.N_HELDOUT,
                                       self.LENGTH, self.n)

    def _oracle(self) -> Oracle:
        return Oracle(make_default_model_set(window=self.DETECTOR_WINDOW, fast=True),
                      max_workers=2, worker_mode="process")

    def prepare(self) -> None:
        # the held-out truth only scores the selector; training never needs it
        self.perf_heldout = self._oracle().performance_matrix(self.inputs.heldout)
        windows = [extract_windows(r.series, self.WINDOW, stride=self.WINDOW)
                   for r in self.inputs.heldout]
        self.heldout_windows = np.vstack(windows)
        self.offsets = np.cumsum([0] + [len(w) for w in windows])

    def setup(self) -> TrainState:
        oracle = self._oracle()
        perf_history = oracle.performance_matrix(self.inputs.history)
        dataset = build_selector_dataset(self.inputs.history, perf_history,
                                         oracle.detector_names, window=self.WINDOW,
                                         stride=self.STRIDE)
        return TrainState(dataset, self.perf_heldout, oracle.detector_names)

    def _fit(self, state: TrainState, seed: int) -> Tuple[NNSelector, FitResult]:
        selector = make_selector("ResNet", window=self.WINDOW,
                                 n_classes=state.dataset.n_classes,
                                 mid_channels=8, num_layers=2, seed=seed)
        config = kdselector_config(epochs=self.EPOCHS, batch_size=self.BATCH,
                                   lsh_bits=self.LSH_BITS, seed=seed)
        start = time.perf_counter()
        selector.fit(state.dataset, config=config)
        fit_s = time.perf_counter() - start
        # every held-out series in one predict pass, voted per series: the
        # functions predict_for_series runs, without one padded chunk per series
        proba = selector.predict_proba(self.heldout_windows)
        picks = tuple(aggregate_window_probas(proba[lo:hi])[0]
                      for lo, hi in zip(self.offsets[:-1], self.offsets[1:]))
        quality = float(np.mean(state.perf_heldout[np.arange(len(picks)), picks]))
        report = selector.last_report_
        return selector, FitResult(fit_s, picks, quality, report.total_samples_processed,
                                   report.n_samples * self.EPOCHS)

    def warmup(self, state: TrainState) -> None:
        # the first operation's fit, so the check can compare the two
        self.reference_selector, self.reference = self._fit(state, self.inputs.fit_seeds[0])

    def operations(self) -> List[int]:
        return list(self.inputs.fit_seeds)

    def run(self, state: TrainState, op: int) -> FitResult:
        return self._fit(state, op)[1]

    def work(self, op, result: FitResult, latency_s: float) -> Tuple[float, float]:
        # nominal window-epochs: visits PA prunes count as work saved
        return float(result.window_epochs), result.fit_s

    def check(self, state: TrainState, ops, results) -> Outcome:
        ref = self.reference
        # the batched held-out picks must equal the one-series-at-a-time path
        evaluation = evaluate_selection(self.reference_selector, self.inputs.heldout,
                                        state.perf_heldout, state.detector_names,
                                        window=self.WINDOW)
        names = [evaluation.selected_models[r.name] for r in self.inputs.heldout]
        if names != [state.detector_names[p] for p in ref.picks]:
            return Outcome(len(results), ref.quality, {"error": "batched picks differ"})
        # a fit is deterministic in its seed: the first operation repeats
        # the warm-up fit exactly
        failed = sum(1 for r in results if r is None)
        first = results[0] if results else None
        if first is not None and (first.picks != ref.picks or first.quality != ref.quality):
            failed += 1
        qualities = [r.quality for r in results if r is not None]
        return Outcome(failed, float(np.mean(qualities)) if qualities else 0.0, {
            "windows": len(state.dataset), "epochs": self.EPOCHS,
            "kept_fraction": _median([r.visits / r.window_epochs
                                      for r in results if r is not None]),
        })

    def patches(self) -> List[Patch]:
        return [
            Patch(Oracle, "performance_matrix", "eval.oracle"),
            Patch(NNSelector, "forward", "nn.forward"),
            Patch(nn.Tensor, "backward", "nn.backward"),
            Patch(nn.Adam, "step", "nn.optim.step"),
            Patch(nn.Adam, "clip_grad_norm", "nn.optim"),
            Patch(PISLLoss, "__call__", "core.loss"),
            Patch(MKIModule, "loss", "core.loss"),
            Patch(PAPruner, "setup", "core.prune"),
            Patch(PAPruner, "select", "core.prune"),
            Patch(SamplePruner, "update", "core.prune"),
            Patch(HashingTextEncoder, "encode", "text.encode"),
        ]

    def layer_metrics(self, index, keys, state, results, counter_delta):
        kept = [r.visits / r.window_epochs for r in results if r is not None]
        return {
            "nn.forward_ms": 1000.0 * index.median(["nn.forward"], keys),
            "nn.backward_ms": 1000.0 * index.median(["nn.backward"], keys),
            "nn.optim_ms": 1000.0 * index.median(["nn.optim", "nn.optim.step"], keys),
            "core.loss_ms": 1000.0 * index.median(["core.loss"], keys),
            "core.prune_ms": 1000.0 * index.median(["core.prune"], keys),
            "text.encode_ms": 1000.0 * index.median(["text.encode"], keys),
            "core.steps": index.median(["nn.optim.step"], keys, lambda s: 1.0),
            "core.kept_fraction": _median(kept),
            "eval.oracle_s": sum(s.duration for s in index.outermost(["eval.oracle"], ["setup"])),
        }


# --------------------------------------------------------------------------- #
# select: batch-select requests on the float teacher tier
# --------------------------------------------------------------------------- #
@dataclass
class SelectState:
    teacher: NNSelector
    service: SelectionService


class Select(Workload):
    """One client sends batch-select requests of a few long series."""

    name = "select"
    work_unit = "series"
    WINDOW, LENGTH = 96, 3200
    SERIES_PER_REQUEST, REPEATS_PER_REQUEST = 4, 1
    TEACHER_PER_FAMILY, TEACHER_LENGTH = 2, 800
    REQUESTS_PER_SECOND = 15.0
    #: the process heap grows over the first requests to a plateau; with
    #: one warm-up request the next five ran up to 30% slow and made a
    #: third of the p90 tail
    WARMUP_REQUESTS = 8

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        teacher = gen.teacher_inputs(self.TEACHER_PER_FAMILY, self.TEACHER_LENGTH)
        n = _n_ops(seconds, self.REQUESTS_PER_SECOND, 20)
        self.inputs = gen.select_inputs(seed, teacher, n, self.SERIES_PER_REQUEST,
                                        self.REPEATS_PER_REQUEST, self.LENGTH,
                                        self.WARMUP_REQUESTS)

    def setup(self) -> SelectState:
        teacher = build_teacher(self.inputs.teacher, self.WINDOW)
        service = SelectionService(teacher, self.inputs.teacher.detector_names,
                                   ServingConfig(window=self.WINDOW))
        return SelectState(teacher, service)

    def warmup(self, state: SelectState) -> None:
        for request in self.inputs.warmup:
            state.service.select_batch(request)

    def operations(self):
        return self.inputs.requests

    def run(self, state: SelectState, op):
        return state.service.select_batch(op)

    def work(self, op, result, latency_s):
        return float(len(op)), latency_s

    def check(self, state: SelectState, ops, results) -> Outcome:
        reference: Dict[str, Tuple[int, List[float]]] = {}
        failed = answers = matching = 0
        for request, answer in zip(ops, results):
            ok = answer is not None and len(answer) == len(request)
            for i, record in enumerate(request):
                if record.name not in reference:
                    choice, aggregated = predict_for_series(state.teacher, record, self.WINDOW)
                    reference[record.name] = (choice, [float(v) for v in aggregated])
                answers += 1
                choice, votes = reference[record.name]
                if (answer is not None and i < len(answer)
                        and answer[i].selected_index == choice
                        and list(answer[i].votes.values()) == votes):
                    matching += 1
                else:
                    ok = False
            failed += not ok
        return Outcome(failed, matching / max(answers, 1), {"answers": answers})

    def patches(self) -> List[Patch]:
        return [
            Patch(SelectionService, "select_batch", "serving.select_batch"),
            Patch(SelectionService, "fingerprint", "serving.fingerprint"),
            Patch(serving_service, "extract_windows_batch", "data.windowing"),
            Patch(serving_service, "aggregate_window_probas", "eval.vote"),
            Patch(NNSelector, "predict_proba", "selectors.forward", _windows_attr),
        ]

    def counters(self, state: SelectState) -> Dict[str, float]:
        stats = state.service.stats
        return {"hits": stats.hits, "misses": stats.misses}

    def layer_metrics(self, index, keys, state, results, counter_delta):
        forward = index.outermost(["selectors.forward"], keys)
        windows = sum(s.attrs.get("windows", 0.0) for s in forward)
        forward_s = sum(s.duration for s in forward)
        lookups = counter_delta["hits"] + counter_delta["misses"]
        return {
            "serving.fingerprint_ms": 1000.0 * index.median(["serving.fingerprint"], keys),
            "serving.cache_hit_ratio": counter_delta["hits"] / max(lookups, 1),
            "data.windowing_ms": 1000.0 * index.median(["data.windowing"], keys),
            "selectors.forward_ms": 1000.0 * index.median(["selectors.forward"], keys),
            "selectors.forward_windows": index.median(
                ["selectors.forward"], keys, lambda s: s.attrs.get("windows", 0.0)),
            "selectors.windows_per_s": windows / forward_s if forward_s else 0.0,
            "eval.vote_ms": 1000.0 * index.median(["eval.vote"], keys),
            "serving.self_ms": 1000.0 * index.median(
                ["serving.select_batch"], keys, index.self_time),
        }


# --------------------------------------------------------------------------- #
# stream: stream --score, a few long streams in-process
# --------------------------------------------------------------------------- #
@dataclass
class StreamState:
    teacher: NNSelector
    model_set: Dict[str, object]
    engine: StreamEngine


class Stream(Workload):
    """``stream --score``: the 12-detector model set, drift off as in the CLI default."""

    name = "stream"
    work_unit = "points"
    #: chunk == window: every tick completes one window per stream
    WINDOW, DETECTOR_WINDOW, CHUNK = 96, 24, 96
    FAMILIES = gen.TEACHER_FAMILIES
    SEGMENT_LENGTH = 400
    #: points each stream already holds when the measured ticks start: the
    #: streams are long-running, so global detectors re-score long series
    HISTORY = 4800
    TEACHER_PER_FAMILY, TEACHER_LENGTH = 2, 800
    TICKS_PER_SECOND = 8.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        teacher = gen.teacher_inputs(self.TEACHER_PER_FAMILY, self.TEACHER_LENGTH)
        self.n = _n_ops(seconds, self.TICKS_PER_SECOND, 20)
        segments = -(-(self.HISTORY + self.n * self.CHUNK) // self.SEGMENT_LENGTH)
        self.inputs = gen.stream_inputs(seed, teacher, self.FAMILIES, segments,
                                        self.SEGMENT_LENGTH)

    def setup(self) -> StreamState:
        teacher = build_teacher(self.inputs.teacher, self.WINDOW)
        model_set = make_default_model_set(window=self.DETECTOR_WINDOW, fast=True)
        engine = StreamEngine(teacher, self.inputs.teacher.detector_names,
                              StreamingConfig(window=self.WINDOW), model_set=model_set)
        return StreamState(teacher, model_set, engine)

    def warmup(self, state: StreamState) -> None:
        # one tick that delivers every stream's history at once
        for record in self.inputs.streams:
            state.engine.append(record.name, record.series[:self.HISTORY])
        state.engine.flush()

    def operations(self):
        return list(range(self.n))

    def run(self, state: StreamState, tick: int):
        lo = self.HISTORY + tick * self.CHUNK
        hi = lo + self.CHUNK
        for record in self.inputs.streams:
            state.engine.append(record.name, record.series[lo:hi])
        return state.engine.flush()

    def work(self, op, result, latency_s):
        return float(self.CHUNK * len(self.inputs.streams)), latency_s

    def check(self, state: StreamState, ops, results) -> Outcome:
        engine = state.engine
        names = self.inputs.teacher.detector_names
        failed, aucs, selected = 0, [], {}
        for record in self.inputs.streams:
            length = len(engine.series(record.name))
            final = type(record)(name=record.name, dataset=record.dataset,
                                 series=record.series[:length], labels=record.labels[:length])
            choice, aggregated = predict_for_series(state.teacher, final, self.WINDOW)
            view = engine.selection(record.name)
            scores = engine.scores(record.name)
            expected = state.model_set[names[choice]].detect(final.series)
            ok = (view is not None and view.selected_index == choice
                  and np.array_equal(view.aggregated, aggregated)
                  and np.array_equal(scores, expected))
            failed += not ok
            selected[record.name] = names[choice]
            if len(scores):
                aucs.append(auc_pr(final.labels[:len(scores)], scores))
        failed += sum(1 for r in results if r is None)
        return Outcome(failed, float(np.mean(aucs)) if aucs else 0.0,
                       {"selected": selected})

    def patches(self) -> List[Patch]:
        return [
            Patch(StreamEngine, "flush", "streaming.flush"),
            Patch(StreamEngine, "append", "streaming.append"),
            Patch(StreamBuffer, "take_new_windows", "streaming.windowing"),
            Patch(NNSelector, "predict_proba", "selectors.forward", _windows_attr),
            Patch(StreamingSelector, "update", "streaming.vote"),
            Patch(OnlineScorer, "update", "streaming.score", _rescored_attrs()),
        ]

    def state_patches(self, state: StreamState) -> List[Patch]:
        return [Patch(detector, "score", f"detectors.score.{name}")
                for name, detector in state.model_set.items()]

    def counters(self, state: StreamState) -> Dict[str, float]:
        stats = state.engine.stats
        return {"full_rescores": stats.full_rescores, "points": stats.points}

    def layer_metrics(self, index, keys, state, results, counter_delta):
        detector_spans = sorted({s.name for s in index.spans if s.name.startswith("detectors.score.")})
        forward = index.outermost(["selectors.forward"], keys)
        rescored = sum(s.attrs.get("rescored", 0.0)
                       for s in index.outermost(["streaming.score"], keys))
        points = counter_delta["points"]
        return {
            "streaming.append_ms": 1000.0 * index.median(["streaming.append"], keys),
            "streaming.windowing_ms": 1000.0 * index.median(["streaming.windowing"], keys),
            "selectors.forward_ms": 1000.0 * index.median(["selectors.forward"], keys),
            "selectors.windows_per_call": (sum(s.attrs.get("windows", 0.0) for s in forward)
                                           / max(len(forward), 1)),
            "streaming.vote_ms": 1000.0 * index.median(["streaming.vote"], keys),
            "streaming.score_ms": 1000.0 * index.median(["streaming.score"], keys),
            "detectors.score_ms": 1000.0 * index.median(detector_spans, keys),
            "streaming.rescore_amplification": rescored / max(points, 1),
            "streaming.full_rescores": counter_delta["full_rescores"],
            "streaming.flush_self_ms": 1000.0 * index.median(
                ["streaming.flush"], keys, index.self_time),
        }


# --------------------------------------------------------------------------- #
# stream-sharded: ShardedService, 2 shards, student-int8 -> teacher-int8 cascade
# --------------------------------------------------------------------------- #
@dataclass
class ShardedState:
    service: ShardedService
    factory: object
    calibration: object


def _frame_attrs(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(len(result))}


def _rpc_attrs_for(service: ShardedService):
    def attrs(args, kwargs, result) -> Dict[str, float]:
        ticks = kwargs.get("ticks") or []
        shard = service.ring.owner(ticks[0]["stream"]) if ticks else ""
        return {"shard": shard}
    return attrs


def _rescored_attrs():
    """Points each ``OnlineScorer.update`` call re-scored (counter delta)."""
    last: Dict[int, int] = {}

    def attrs(args, kwargs, result) -> Dict[str, float]:
        scorer = args[0]
        before = last.get(id(scorer), 0)
        last[id(scorer)] = scorer.points_rescored
        return {"rescored": float(scorer.points_rescored - before)}
    return attrs


def _updates_digest(updates: Dict[str, object]) -> str:
    plain = {k: (v.as_dict() if hasattr(v, "as_dict") else v) for k, v in updates.items()}
    return hashlib.blake2b(json.dumps(plain, sort_keys=True).encode(), digest_size=16).hexdigest()


class StreamSharded(Workload):
    """Many short-chunk streams through two shard processes, selection only."""

    name = "stream-sharded"
    work_unit = "points"
    #: chunk == window: every tick completes exactly one window per stream,
    #: so ticks do equal work and the latency median sits inside one mode
    WINDOW, CHUNK, N_STREAMS, N_SHARDS = 64, 64, 256, 2
    TEACHER_PER_FAMILY, TEACHER_LENGTH = 2, 800
    N_TRANSFER, N_CALIBRATION, TRANSFER_LENGTH = 16, 8, 1600
    DISTILL_EPOCHS = 10
    TARGET_AGREEMENT = 0.99
    CHECK_STREAMS = 64
    WARMUP_TICKS = 24
    TICKS_PER_SECOND = 18.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        teacher = gen.teacher_inputs(self.TEACHER_PER_FAMILY, self.TEACHER_LENGTH)
        ticks = _n_ops(seconds, self.TICKS_PER_SECOND, 8)
        self.inputs = gen.sharded_inputs(seed, teacher, self.N_STREAMS, self.WARMUP_TICKS,
                                         ticks, self.CHUNK,
                                         self.N_TRANSFER, self.N_CALIBRATION,
                                         self.TRANSFER_LENGTH, self.CHECK_STREAMS)
        self.teacher: Optional[NNSelector] = None
        self.names = teacher.detector_names
        #: the cores this run may use, read before set-up pins the client
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def _windows(self, records) -> np.ndarray:
        return np.vstack([extract_windows(r.series, self.WINDOW, stride=self.WINDOW // 2)
                          for r in records])

    def prepare(self) -> None:
        # the float teacher is the input the tiers are built from
        self.teacher = build_teacher(self.inputs.teacher, self.WINDOW)

    def setup(self) -> ShardedState:
        transfer = self._windows(self.inputs.transfer)
        student, _ = distill_student(self.teacher, transfer, self.names, DistillConfig(
            epochs=self.DISTILL_EPOCHS, features="stats", seed=gen.TEACHER_SEED))
        quantized, _ = quantize_student(student, transfer, min_agreement=0.0)
        teacher_int8, gate = quantize_teacher(self.teacher, transfer, min_agreement=0.0)
        calib = self._windows(self.inputs.calibration)
        calibration = calibrate_margin_threshold(
            quantized.predict_proba(calib), self.teacher.predict_proba(calib),
            target_agreement=self.TARGET_AGREEMENT)
        router = CascadeRouter.from_calibration(
            teacher_int8, calibration, seed=gen.TEACHER_SEED, window=self.WINDOW,
            slow_tier="teacher-int8", slow_quality=gate["agreement"])
        factory = make_engine_factory(quantized, self.names, StreamingConfig(
            window=self.WINDOW, selector_tier="student-int8"), cascade=router)
        service = ShardedService(factory, ServiceConfig(n_shards=self.N_SHARDS))
        # The client and both shards share one core.  Three busy processes
        # on a 2-vCPU VM made the figures follow the scheduler: unpinned,
        # the p90 tick latency swung 35-54 ms between runs, and with one
        # core per shard the p50 still ranged 39.6-51.1 ms.  In alternating
        # runs, the shards sharing the second core and the client on the
        # first gave a p50 of 36.6-40.4 ms, and all three on one core gave
        # 33.9-36.9 ms: each RPC then wakes a process on the same core
        # instead of an idle vCPU.  Every layer's work adds to the tick.
        if self.cpus:
            for shard in service.shard_ids:
                os.sched_setaffinity(service.shard_pid(shard), {self.cpus[0]})
            os.sched_setaffinity(0, {self.cpus[0]})
        return ShardedState(service, factory, calibration)

    def warmup(self, state: ShardedState) -> None:
        # The first ticks after a fork run slow: each shard copies the
        # inherited pages it writes (reference counts included) on first
        # touch.  These ticks also open every stream.  Measured ticks all
        # serve existing streams from warmed shards.
        for tick in range(self.inputs.warmup_ticks):
            self.run(state, tick)

    def operations(self):
        first = self.inputs.warmup_ticks
        return list(range(first, first + self.inputs.ticks))

    def run(self, state: ShardedState, tick: int):
        lo, hi = tick * self.CHUNK, (tick + 1) * self.CHUNK
        for sid, series in self.inputs.streams.items():
            state.service.append(sid, series[lo:hi])
        return state.service.flush()

    def work(self, op, result, latency_s):
        return float(self.CHUNK * len(self.inputs.streams)), latency_s

    def retain(self, result):
        # only a digest and the selections of the checked streams: retained
        # update dicts would grow the client's heap, and its garbage
        # collections, with every tick
        sample = {sid: result[sid] for sid in self.inputs.check_sample if sid in result}
        return _updates_digest(sample), tuple(u["selected_index"] for u in sample.values())

    def check(self, state: ShardedState, ops, results) -> Outcome:
        # A stream's updates do not depend on which other streams share its
        # flush (fixed-width forward chunks, per-row escalation), so a seeded
        # sample of streams replayed alone must match tick for tick.
        sample = self.inputs.check_sample
        engine = state.factory()  # the engine a shard builds, in-process
        failed = 0
        for tick in range(self.inputs.warmup_ticks):
            for sid in sample:
                engine.append(sid, self.inputs.streams[sid][tick * self.CHUNK:
                                                            (tick + 1) * self.CHUNK])
            engine.flush()
        for tick, result in zip(ops, results):
            lo, hi = tick * self.CHUNK, (tick + 1) * self.CHUNK
            for sid in sample:
                engine.append(sid, self.inputs.streams[sid][lo:hi])
            expected = engine.flush()
            if result is None or result[0] != _updates_digest(expected):
                failed += 1
        final = results[-1][1] if results and results[-1] is not None else ()
        agree = 0
        for sid, selected in zip(sample, final):
            # predict_for_series on the float teacher, for a bare array
            windows = extract_windows(self.inputs.streams[sid], self.WINDOW, stride=self.WINDOW)
            choice, _ = aggregate_window_probas(self.teacher.predict_proba(windows))
            agree += selected == choice
        return Outcome(failed, agree / len(sample),
                       {"checked_streams": len(sample),
                        "threshold": state.calibration.threshold,
                        "calibrated_escalation_rate": state.calibration.escalation_rate})

    def child_pids(self, state: ShardedState) -> List[int]:
        return [pid for pid in (state.service.shard_pid(s) for s in state.service.shard_ids)
                if pid is not None]

    def close(self, state: ShardedState) -> None:
        state.service.close()
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)

    def patches(self) -> List[Patch]:
        return [
            Patch(ShardedService, "flush", "service.flush"),
            Patch(ShardedService, "append", "service.append"),
            Patch(transport, "encode_message", "service.encode", _frame_attrs),
        ]

    def state_patches(self, state: ShardedState) -> List[Patch]:
        return [Patch(transport.ShardClient, "request", "service.rpc",
                      _rpc_attrs_for(state.service))]

    def counters(self, state: ShardedState) -> Dict[str, float]:
        totals = state.service.stats()["totals"]
        return {"escalated": totals.get("escalated_windows", 0),
                "forward": totals.get("forward_windows", 0)}

    def layer_metrics(self, index, keys, state, results, counter_delta):
        metrics = {
            "service.append_ms": 1000.0 * index.median(["service.append"], keys),
            "service.encode_ms": 1000.0 * index.median(["service.encode"], keys),
            "service.frame_bytes": index.median(
                ["service.encode"], keys, lambda s: s.attrs.get("bytes", 0.0)),
            "service.flush_self_ms": 1000.0 * index.median(
                ["service.flush"], keys, index.self_time),
            "cascade.escalated_fraction": (counter_delta["escalated"]
                                           / max(counter_delta["forward"], 1)),
        }
        for shard in state.service.shard_ids:
            metrics[f"service.rpc_wait_ms.{shard}"] = 1000.0 * index.median(
                ["service.rpc"], keys,
                lambda s, shard=shard: s.duration if s.attrs.get("shard") == shard else 0.0)
        skews = []
        for flush in index.outermost(["service.flush"], keys):
            waits = [c.duration for c in index.children.get(flush.span_id, ())
                     if c.name == "service.rpc"]
            if len(waits) >= 2:
                skews.append(max(waits) / (sum(waits) / len(waits)))
        metrics["service.shard_skew"] = _median(skews)
        return metrics


WORKLOADS = {w.name: w for w in (Train, Select, Stream, StreamSharded)}
