"""Seeded workload inputs.

Everything a workload feeds the program is built here from ``--seed`` and
the run length alone, so the same seed gives byte-identical inputs and the
program only ever sees the generated records.  The dataset families are
fixed per workload; the seed picks the series drawn from them, which
repeats, and the synthetic oracle knowledge the serving teacher learns
from.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.data import generate_series
from repro.data.records import TimeSeriesRecord
from repro.detectors.base import DEFAULT_MODEL_NAMES

#: families whose synthetic oracle winner the serving teacher learns; the
#: winner of family ``k`` is ``TEACHER_WINNERS[k]``
TEACHER_FAMILIES = ("ECG", "IOPS", "MGAB", "SMD", "NAB", "YAHOO", "KDD21", "GHL")
TEACHER_WINNERS = ("POLY", "HBOS", "MP", "IForest", "NORMA", "PCA", "OCSVM", "LOF")
#: the serving teacher is the deployed model, the same in every run: its
#: training corpus and seed are fixed, and ``--seed`` drives only the
#: traffic.  A teacher retrained per seed picks a different detector for
#: the same stream on every seed, and the stream workload's cost is the
#: picked detector's cost.
TEACHER_SEED = 1


def _seed_key(seed: int, *parts: object) -> int:
    """A stable 32-bit generator seed for one named input stream."""
    text = "|".join(str(p) for p in (seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little")


@dataclass
class TrainInputs:
    """The history to label and fit on, held-out series, and one seed per fit."""

    history: List[TimeSeriesRecord]
    heldout: List[TimeSeriesRecord]
    fit_seeds: List[int]


@dataclass
class TeacherInputs:
    """Training set of the serving teacher: series and synthetic oracle rows."""

    records: List[TimeSeriesRecord]
    performance: np.ndarray
    detector_names: List[str]


@dataclass
class SelectInputs:
    """Closed-loop ``batch-select`` traffic: one list of series per request."""

    teacher: TeacherInputs
    warmup: List[List[TimeSeriesRecord]]
    requests: List[List[TimeSeriesRecord]]


@dataclass
class StreamInputs:
    """Long labelled streams, replayed one chunk per stream per tick."""

    teacher: TeacherInputs
    streams: List[TimeSeriesRecord]


@dataclass
class ShardedInputs:
    """Many short-chunk streams plus the distillation transfer series."""

    teacher: TeacherInputs
    transfer: List[TimeSeriesRecord]
    calibration: List[TimeSeriesRecord]
    #: ``warmup_ticks + ticks`` chunks per stream
    streams: Dict[str, np.ndarray]
    warmup_ticks: int
    ticks: int
    #: streams whose answers the check recomputes in-process
    check_sample: List[str]


def train_inputs(seed: int, families: Sequence[str], n_history: int, n_heldout: int,
                 length: int, n_fits: int) -> TrainInputs:
    """A fixed labelled corpus, and ``n_fits`` distinct fit seeds drawn from ``seed``.

    A fit at this size picks nearly one detector for every held-out series,
    and which one depends on the initialisation; fits from many seeds make
    the run's quality an average over initialisations instead of one draw.
    The corpus stays fixed so that the spread across runs is that average's.
    """
    key = _seed_key(TEACHER_SEED, "train-corpus")

    def draw(offset: int, n: int) -> List[TimeSeriesRecord]:
        return [generate_series(families[i % len(families)], offset + i, length, seed=key)
                for i in range(n)]
    gen = np.random.default_rng(_seed_key(seed, "train-fits"))
    fit_seeds = [int(x) for x in gen.choice(2**31 - 1, size=n_fits, replace=False)]
    return TrainInputs(draw(0, n_history), draw(10_000, n_heldout), fit_seeds)


def teacher_inputs(per_family: int, length: int, seed: int = TEACHER_SEED) -> TeacherInputs:
    """Teacher training series with a noisy family -> winner oracle matrix."""
    records, rows = [], []
    gen = np.random.default_rng(_seed_key(seed, "teacher-perf"))
    names = list(DEFAULT_MODEL_NAMES)
    for k, family in enumerate(TEACHER_FAMILIES):
        for i in range(per_family):
            records.append(generate_series(family, 20_000 + i, length,
                                           seed=_seed_key(seed, "teacher")))
            row = gen.uniform(0.05, 0.4, size=len(names))
            row[names.index(TEACHER_WINNERS[k])] += 0.5
            rows.append(row)
    return TeacherInputs(records, np.array(rows), names)


def select_inputs(seed: int, teacher: TeacherInputs, n_requests: int,
                  series_per_request: int, repeats_per_request: int,
                  length: int, n_warmup: int) -> SelectInputs:
    """Requests of fresh series plus a fixed number of repeats of earlier ones.

    Every request holds the same number of fresh series and of repeats, so
    each request does the same forward work and the latency distribution
    does not depend on how the seed happened to mix hits and misses.  The
    ``n_warmup`` warm-up requests hold fresh series only; later requests
    may repeat them.
    """
    gen = np.random.default_rng(_seed_key(seed, "select"))
    families = TEACHER_FAMILIES
    counter = itertools.count()

    def fresh() -> TimeSeriesRecord:
        k = next(counter)
        family = families[int(gen.integers(len(families)))]
        return generate_series(family, 30_000 + k, length, seed=_seed_key(seed, "select"))

    n_fresh = series_per_request - repeats_per_request
    warmup = [[fresh() for _ in range(series_per_request)] for _ in range(n_warmup)]
    seen = [record for request in warmup for record in request]
    requests = []
    for _ in range(n_requests):
        new = [fresh() for _ in range(n_fresh)]
        request = list(new)
        for _ in range(repeats_per_request):
            request.insert(int(gen.integers(len(request) + 1)),
                           seen[int(gen.integers(len(seen)))])
        seen.extend(new)
        requests.append(request)
    return SelectInputs(teacher, warmup, requests)


def stream_inputs(seed: int, teacher: TeacherInputs, families: Sequence[str],
                  segments: int, segment_length: int) -> StreamInputs:
    """One long labelled stream per family, ``segments`` series end to end.

    Each generated series carries one to three anomalies; a stream made of
    several of them carries enough that its AUC-PR is not decided by one.
    """
    key = _seed_key(seed, "stream")
    streams = []
    for i, family in enumerate(families):
        parts = [generate_series(family, 40_000 + 100 * i + j, segment_length, seed=key)
                 for j in range(segments)]
        streams.append(TimeSeriesRecord(
            name=f"{family}_stream{i}", dataset=family,
            series=np.concatenate([p.series for p in parts]),
            labels=np.concatenate([p.labels for p in parts])))
    return StreamInputs(teacher, streams)


def sharded_inputs(seed: int, teacher: TeacherInputs, n_streams: int,
                   warmup_ticks: int, ticks: int, chunk: int, n_transfer: int, n_calibration: int,
                   transfer_length: int, n_check: int) -> ShardedInputs:
    """Stream traffic drawn from the teacher's families, and distillation data."""
    key = _seed_key(seed, "sharded")
    families = TEACHER_FAMILIES
    length = (warmup_ticks + ticks) * chunk
    streams = {}
    for i in range(n_streams):
        record = generate_series(families[i % len(families)], 50_000 + i, length, seed=key)
        streams[f"s{i:04d}"] = record.series
    # the tiers are deployed models like the teacher: built from a fixed corpus
    corpus = _seed_key(TEACHER_SEED, "tiers")
    transfer = [generate_series(families[i % len(families)], 70_000 + i,
                                transfer_length, seed=corpus) for i in range(n_transfer)]
    calibration = [generate_series(families[i % len(families)], 80_000 + i,
                                   transfer_length, seed=corpus) for i in range(n_calibration)]
    pick = np.random.default_rng(key).choice(n_streams, size=min(n_check, n_streams),
                                             replace=False)
    sample = sorted(f"s{i:04d}" for i in pick)
    return ShardedInputs(teacher, transfer, calibration, streams, warmup_ticks, ticks, sample)


def digest(obj: object) -> str:
    """Content hash of (nested) inputs: arrays by bytes, records by fields."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x: object) -> None:
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, TimeSeriesRecord):
            h.update(x.name.encode() + x.dataset.encode())
            feed(x.series)
            feed(x.labels)
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(f"[{len(x)}".encode())
            for item in x:
                feed(item)
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                h.update(name.encode())
                feed(getattr(x, name))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
