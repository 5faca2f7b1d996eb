"""The spectrum sweep: one chain-checked row (p, n2, g, G, y, yprime) per
prime, made by a pool of forked workers, and the row renderers.

`cli` imports these names by name and calls them through its own globals,
so the benchmark's tracer, which patches `cli`'s names, sees each call.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from . import modcore, subsetprod
from .output import render_csv, render_json

SPECTRUM_COLUMNS = ("p", "n2", "g", "G", "y", "yprime")


class ChainViolationError(AssertionError):
    """A spectrum row violated n2 <= G <= g or G <= y."""


class WorkerLostError(RuntimeError):
    """A spectrum worker ended before it sent all of its rows."""


def _check_range(p_min: int, p_max: int, workers: int) -> None:
    """Refuse a prime range outside [3, MAX_TABLE_PRIME] or an empty pool."""
    if not 3 <= p_min <= p_max:
        raise ValueError(f"need 3 <= pmin <= pmax, got [{p_min}, {p_max}]")
    if p_max > modcore.MAX_TABLE_PRIME:
        raise ValueError(f"pmax={p_max} exceeds the index-table cap {modcore.MAX_TABLE_PRIME}")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _spectrum_row(p: int) -> tuple[int, int, int, int, int, int | None]:
    """The row (p, n2, g, G, y, yprime) for p, checked against the chain
    n2 <= G <= g, G <= y <= yprime as it is made."""
    ctx = modcore.build_context(p)
    n2 = modcore.least_nonresidue(p)
    big_g = modcore.group_generation_bound(ctx)
    y = subsetprod.coverage_threshold(ctx)
    yp = subsetprod.prime_coverage_threshold(ctx)
    if not (n2 <= big_g <= ctx.g and big_g <= y):
        raise ChainViolationError(
            f"chain violation at p={p}: n2={n2}, G={big_g}, g={ctx.g}, y={y}"
        )
    if yp is not None and yp < y:
        raise ChainViolationError(f"y'={yp} < y={y} at p={p}")
    return (p, n2, ctx.g, big_g, y, yp)


def run_spectrum_sweep(p_min: int, p_max: int, workers: int = 1) -> Iterator[tuple]:
    """One row per prime in [p_min, p_max], ascending, chain-checked.

    The range and pool are checked at the call; each prime is sieved and
    its row made as the row is read, by a pool of workers (`_fork_map`).
    Rows arrive in prime order, so a ChainViolationError names the least
    violating prime at any worker count.  A caller that may stop early
    closes the generator, which stops the pool.
    """
    _check_range(p_min, p_max, workers)
    return _fork_map(_spectrum_row, modcore.iter_primes(p_min, p_max), workers)


def _fork_map(fn, items: Iterable, workers: int) -> Iterator:
    """fn(item) for each of the items, in their order, from a pool of
    forked processes with one pipe each.

    The pool never gets more workers than there are CPUs or items; fn runs
    in-process where fewer than two remain or os.fork is missing.  The
    workers start at the first read, and worker w maps its own copy of the
    items at w, w + workers, ..., writing each result whole to its pipe as
    one marshal record.  An exception that fn raises goes as one tagged
    record and ends the worker; the parent raises it again, with the type
    and message it has in-process.  The parent reads result i from pipe
    i % workers.  Whatever ends the read, the last result, an exception or
    close(), every worker is killed and reaped and every pipe closed.  A
    worker whose pipe ends before its results do raises WorkerLostError.
    """
    items = iter(items)
    head = list(islice(items, min(workers, os.cpu_count() or 1)))
    items = chain(head, items)
    workers = len(head)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import signal  # here, where the pool starts: an in-process run does not load it

    pids: list[int] = []
    pipes = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            # SIGINT waits until the new worker is in pids, so a worker
            # that starts is always killed and reaped; a worker keeps it
            # blocked, since the parent decides how the pool ends
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    # the worker ends by os._exit: no exception, traceback or
                    # inherited buffer leaves it.  With the inherited read
                    # ends closed, a write fails once the parent is gone
                    code = 1
                    try:
                        for pipe in pipes:
                            os.close(pipe.fileno())
                        for item in islice(items, w, None, workers):
                            try:
                                record = (True, fn(item))
                            except Exception as exc:
                                import pickle
                                record = (False, pickle.dumps(exc))
                            data = marshal.dumps(record)
                            while data:  # a write may take only part of a record
                                data = data[os.write(write_fd, data):]
                            if not record[0]:
                                break
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, item in enumerate(items):
            try:
                ok, result = marshal.load(pipes[i % workers])
            except EOFError:
                raise WorkerLostError(
                    f"spectrum worker {i % workers + 1} of {workers} ended before "
                    f"its result for {item!r}"
                ) from None
            if not ok:
                import pickle
                raise pickle.loads(result)
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def spectrum_csv(rows: Iterable[tuple]) -> Iterator[str]:
    return render_csv(SPECTRUM_COLUMNS, rows)


def spectrum_json(rows: Iterable[tuple]) -> Iterator[str]:
    """render_json({"rows": [...]}) of the rows, one chunk per row: each
    row is dumped alone and indented to its depth in the payload."""
    import json
    head, tail = render_json({"rows": []}).split("[]")
    yield head + "["
    sep, close = "\n    ", "]"
    for row in rows:
        text = json.dumps(dict(zip(SPECTRUM_COLUMNS, row)), sort_keys=True, indent=2)
        yield sep + text.replace("\n", "\n    ")
        sep, close = ",\n    ", "\n  ]"
    yield close + tail
