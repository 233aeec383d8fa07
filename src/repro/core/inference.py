"""Batched selector inference — the shared predict path of the system.

Selector forward passes are memory-bound: a serving batch can stack tens of
thousands of windows, far more than the NN substrate should materialise
activations for at once.  :func:`batched_predict_proba` runs any per-window
probability function in fixed-size chunks into a pre-allocated output, so
the one-shot pipeline, the trainer's validation pass and the serving and
streaming layers all share the same inference loop.

Chunking never changes results — but that guarantee has to be *engineered*,
not assumed.  Row-independence of the maths (each window's class
distribution depends only on that window) is necessary but not sufficient:
BLAS GEMM pick their blocking by matrix shape, so the same row can produce
bits an ulp apart inside a 5-row batch and a 64-row batch.  The loop below
therefore evaluates **every** chunk at exactly ``batch_size`` rows, padding
the final partial chunk (the pad rows are discarded) — a row's bits then
depend only on its own values and the chunk width, never on how many
windows happened to arrive together.  This is what lets the streaming
engine classify windows tick by tick and still match a from-scratch batch
run bitwise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Default number of windows per inference chunk.  Measured on the conv
#: selectors, 32-64 windows keep the im2col working set inside cache;
#: larger chunks are slower per window, smaller ones pay Python overhead.
DEFAULT_PREDICT_BATCH_SIZE = 64


def batched_predict_proba(
    proba_fn: Callable[[np.ndarray], np.ndarray],
    windows: np.ndarray,
    n_classes: int,
    batch_size: int = DEFAULT_PREDICT_BATCH_SIZE,
) -> np.ndarray:
    """Apply a per-window probability function in fixed-size chunks.

    ``proba_fn`` maps a (B, ...) slice of ``windows`` to a (B, n_classes)
    probability matrix; the slices are concatenated into one (N, n_classes)
    output.  A final partial chunk is padded up to ``batch_size`` rows
    (repeating its last row) and the pad outputs dropped, so each row's
    result is bitwise independent of the total window count.
    ``batch_size <= 0`` runs everything in a single un-padded chunk.
    """
    windows = np.asarray(windows)
    proba = np.empty((len(windows), n_classes), dtype=np.float64)
    if batch_size <= 0:
        if len(windows):
            proba[:] = proba_fn(windows)  # single chunk; assignment checks the shape
        return proba
    for start in range(0, len(windows), batch_size):
        chunk = windows[start:start + batch_size]
        if len(chunk) < batch_size:
            pad = np.repeat(chunk[-1:], batch_size - len(chunk), axis=0)
            proba[start:start + len(chunk)] = proba_fn(
                np.concatenate([chunk, pad]))[: len(chunk)]
        else:
            proba[start:start + len(chunk)] = proba_fn(chunk)
    return proba


def selector_predict_proba(
    selector,
    windows: np.ndarray,
    batch_size: int = DEFAULT_PREDICT_BATCH_SIZE,
) -> np.ndarray:
    """Per-window probabilities of any selector: NN selectors run their
    chunk-padded predict path at ``batch_size``, classical ones un-chunked."""
    from ..selectors.nn_selector import NNSelector  # deferred: selectors import core

    if isinstance(selector, NNSelector):
        return selector.predict_proba(windows, batch_size=batch_size)
    return selector.predict_proba(windows)
