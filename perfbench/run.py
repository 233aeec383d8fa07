"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the same operations twice on fresh set-ups, first
untraced and then with spans around the program's public functions, and
reports the per-layer metrics plus ``obs.trace_overhead`` (untraced
throughput / traced throughput).  Spans of a traced run are written to
``.perfbench/`` when it ends.

The line before the result is a report: the machine fingerprint, the
tail percentile used and its sample count, and what the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

#: BLAS and OpenMP pools are pinned to one thread before NumPy loads: the
#: box has two cores and the sharded workload forks two shards that
#: inherit these settings
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent

#: how long a child may take to exit after it was asked to, in seconds
CHILD_GRACE_S = 5.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_pids() -> list:
    """Pids of this process's live children, from every thread's list."""
    pids = set()
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except (OSError, ValueError):
            pass
    return sorted(pids)


def _reap(pid: int, deadline: float) -> bool:
    """Wait for one child until ``deadline``; True once it is gone."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _terminate(pids) -> None:
    """SIGTERM the given children, then SIGKILL those still running."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + CHILD_GRACE_S
        pids = [pid for pid in pids if not _reap(pid, deadline)]
        if not pids:
            return


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Creating shared memory (the sharded workload does) starts
    multiprocessing's resource tracker, a child that nobody waits for: it
    exits only once its pipe closes, so unless it is stopped here it
    outlives this process.  It ignores SIGTERM; closing its pipe is how it
    is asked to exit, and every other child, which may hold that pipe
    through fork, has to be gone first.  No other child is expected (each
    workload closes what it opens); any left over gets SIGTERM, then
    SIGKILL.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    _terminate([pid for pid in _child_pids() if pid != tracker_pid])
    if tracker_pid is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    _terminate(_child_pids())


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``stop_children`` runs on it too.

    Forked children (shards, oracle pool workers) get the default action
    back as soon as they are forked.  A Python-level handler runs only
    between bytecodes, so a pool worker blocked in a lock would survive
    the SIGTERM its pool sends on shutdown, and the pool would wait for it
    forever.
    """
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _exit_on_sigterm()
    try:
        return _run(args)
    finally:
        stop_children()


def _run(args) -> int:
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        result, report, spans = measure.traced_run(workload)
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        measure.write_spans(out, spans)
        report["spans_file"] = str(out.relative_to(ROOT))
    else:
        result, report = measure.untraced_run(workload)
    report["machine"] = measure.fingerprint(THREAD_VARS)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
