"""Batch front end: spectrum sweeps, the verification suite, serialization.

Subcommands:
  spectrum   sweep primes, one row (p, n2, g, G, y, yprime) per prime
  counts     exact subset-product counts for one (p, y)
  coverage   arithmetic-progression coverage threshold
  factorize  bounded-part factorizations (kway | ranged | threeway)
  charsum    a single character partial sum
  verify     run the verification suite, emit a JSON report

Exit codes: 0 all pass, 1 any FAIL, 2 usage or I/O error or a lost
spectrum worker, 130 interrupted (SIGINT).  Reports are
deterministic for a fixed config and seed: records are emitted in a fixed
order, randomized harnesses derive from the seed, and wall-clock timings
go to the console only, never into the serialized output.
"""

from __future__ import annotations

import argparse
import contextlib
import marshal
import math
import os
import re
import stat
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

# characters, friable and json load in the checks and commands that use
# them, so a spectrum sweep and its workers carry none of them.  The checks
# are imported eagerly, by name: the benchmark's tracer patches these names
# before main runs (see _SUITE)
from . import modcore, subsetprod
from .checks import (
    CheckRecord,
    check_burgess_ratio,
    check_dp_vs_characters,
    check_dp_vs_enumeration,
    check_friable_count,
    check_kway_random,
    check_kway_sharpness,
    check_lemma_circle,
    check_lemma_near_one,
    check_lemma_z_grid,
    check_mass_conservation,
    check_polya_vinogradov,
    check_ranged_random,
    check_ranged_sharpness,
)

SPECTRUM_COLUMNS = ("p", "n2", "g", "G", "y", "yprime")
SCHEMA_VERSION = 1
ALL_CHECKS = ("spectrum", "theorem", "lemmas", "factorization", "friable", "burgess")
# factorize's default epsilon; the verify report's config echoes it.
DEFAULT_EPSILON = Fraction(19, 100)
# factorize --epsilon and a y-rule's exponent are exact rationals with
# |numerator| and denominator at most this.  Fraction expands a decimal
# exponent into a power of ten (1e999999 takes about 0.7 s, 1e9999999 does
# not finish), so an exponent of more than six digits is refused before it
# is expanded.
MAX_FRACTION_TERM = 10**4
_DECIMAL_EXPONENT = re.compile(r"[eE][+-]?0*(\d+)")
# `counts` folds y steps over p-1 slots of at most y bits and prints p-1
# y-bit counts: (p-1) y^2 bounds its work (p = 10007, y = 999 takes about
# half a second, the most the cap allows at that p).  It also holds all p-1
# counts at once, and for JSON their text, a few hundred bytes a residue, so
# p-1 is capped for a memory budget of 256 MB: the largest run the two caps
# allow (p = 262139, y = 195) peaks at about 180 MB with JSON output, 80 MB
# with CSV, which streams its lines (maximum RSS of the whole process,
# CPython 3.11 on x86-64).
# `factorize` trial-divides n up to sqrt(n), about half a second at n = 10^14.
MAX_COUNT_WORK = 10**10
MAX_COUNT_RESIDUES = 1 << 18
MAX_FACTORIZE_N = 10**14
# A factorization forms powers of y up to y^(k b + 2a) for epsilon = a/b
# (y^(k+1) in kway mode); (k b + 2a + 1) * bitlen(y) bounds their size in
# bits.  At the cap the powers and their roots take about a fifth of a second.
MAX_FACTORIZE_POWER_BITS = 10**6
# The theorem check compares the rule's y against ceil(p^0.25) at these primes.
THEOREM_PRIMES = (101, 211, 401, 1009)
QUARTER = Fraction(1, 4)


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


class SweepConfig(NamedTuple):
    """The config of a `verify` run."""

    p_min: int = 3
    p_max: int = 1009
    checks: tuple[str, ...] = ALL_CHECKS
    y_rule: str = "p^0.6"
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        _check_range(self.p_min, self.p_max, self.workers)
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        try:
            y_rule = parse_y_rule(self.y_rule)
        except ValueError as exc:
            raise ValueError(f"bad y-rule {self.y_rule!r}: {exc}") from exc
        if "theorem" in self.checks:
            for p in THEOREM_PRIMES:
                if p <= self.p_max and y_rule(p) <= subsetprod.theorem_y(p, QUARTER):
                    raise ValueError(
                        f"y-rule {self.y_rule!r} gives y={y_rule(p)} at p={p}; the "
                        f"theorem check needs y above ceil(p^0.25)"
                    )


def parse_y_rule(rule: str):
    """Parse a per-prime y choice: either 'p^<exponent>' or an integer constant.

    The exponent is an exact rational a/b ('0.6', '3/5', '2', see
    `parse_fraction`); y is then the least y with y^b >= p^a.  Results are
    clamped to [1, p-1].
    """
    rule = rule.strip()
    if rule.startswith("p^"):
        exponent = parse_fraction(rule[2:])
        return lambda p: subsetprod.theorem_y(p, exponent)
    value = int(rule)
    return lambda p: min(p - 1, max(1, value))


# ---------------------------------------------------------------------------
# spectrum sweep


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


# ---------------------------------------------------------------------------
# verification suite: the two checks that read the sweep and the y-rule
# parser; the others are in checks.py


def check_spectrum_chain(p_min: int, p_max: int, workers: int) -> CheckRecord:
    with contextlib.closing(run_spectrum_sweep(p_min, p_max, workers)) as rows:
        try:
            primes = sum(1 for _ in rows)
            status, violation = "PASS", ""
        except ChainViolationError as exc:
            primes, status, violation = 0, "FAIL", str(exc)
    return CheckRecord(
        name="spectrum_chain",
        params={"p_min": p_min, "p_max": p_max},
        status=status,
        metrics={"primes": primes, "violation": violation},
    )


def check_theorem_error(y_rule: str, p_max: int) -> list[CheckRecord]:
    """The normalized error ratio at the rule's y and at ceil(p^0.25).

    The check passes when the ratio at the rule's y is finite and at most
    the ratio at the small y.  With D_y(b) = S_y(b) - 2^y/(p-1), taking or
    skipping n = y+1 gives D_{y+1}(b) = D_y(b) + D_y(b/(y+1)), so
    max |D_{y+1}| <= 2 max |D_y| and the ratio max |D_y| p^2 / 2^y never
    increases in y; it can stay level (p = 401 at y = 5 and 6).
    """
    rule = parse_y_rule(y_rule)
    ratios = {}
    shrink_ok = True
    for p in THEOREM_PRIMES:
        if p > p_max:
            continue
        y_main = rule(p)
        y_small = subsetprod.theorem_y(p, QUARTER)
        ctx = modcore.build_context(p)
        ratio = {
            dp.y: subsetprod.error_report(dp)
            for dp in subsetprod.subset_product_prefixes(ctx, (y_small, y_main))
        }
        r_main, r_small = ratio[y_main], ratio[y_small]
        ratios[str(p)] = {
            "y": y_main,
            "ratio": r_main,
            "y_small": y_small,
            "ratio_small": r_small,
        }
        if not (math.isfinite(r_main) and r_main <= r_small):
            shrink_ok = False
    report = CheckRecord(
        name="theorem_error_ratio",
        params={"y_rule": y_rule, "y_small_rule": "p^0.25"},
        status="REPORT",
        metrics=ratios,
    )
    monotone = CheckRecord(
        name="theorem_error_shrinks",
        params={"primes": sorted(int(p) for p in ratios)},
        status="PASS" if shrink_ok else "FAIL",
        metrics={},
    )
    return [report, monotone]


# Each group's checks in report order, with the arguments the config gives
# them.  The lambdas call the checks through this module's names, never
# through checks.py, so a tracer that patches those names sees every call.
_SUITE = {
    "spectrum": (lambda c: [check_spectrum_chain(c.p_min, c.p_max, c.workers)],),
    "theorem": (
        lambda c: [check_dp_vs_enumeration()],
        lambda c: [check_dp_vs_characters(min(31, c.p_max))],
        lambda c: [check_mass_conservation(c.seed, min(1009, c.p_max))],
        lambda c: check_theorem_error(c.y_rule, c.p_max),
    ),
    "lemmas": (
        lambda c: [check_lemma_circle(c.seed + 1)],
        lambda c: [check_lemma_z_grid()],
        lambda c: [check_lemma_near_one(min(311, c.p_max))],
    ),
    "factorization": (
        lambda c: [check_kway_random(c.seed + 2)],
        lambda c: [check_kway_sharpness()],
        lambda c: [check_ranged_random(c.seed + 3)],
        lambda c: [check_ranged_sharpness()],
    ),
    "friable": (lambda c: [check_friable_count()],),
    "burgess": (
        lambda c: [check_polya_vinogradov(min(311, c.p_max))],
        lambda c: [check_burgess_ratio(c.p_max)],
    ),
}


def run_verification_suite(config: SweepConfig) -> list[CheckRecord]:
    """Run the selected checks in a fixed order; deterministic given seed.

    A check's wall time goes to the first record it returns.
    """
    config.validate()
    records: list[CheckRecord] = []
    for group in ALL_CHECKS:
        if group not in config.checks:
            continue
        for run in _SUITE[group]:
            t0 = time.perf_counter()
            first, *rest = run(config)
            records.append(first._replace(elapsed=time.perf_counter() - t0))
            records.extend(rest)
    return records


def verification_report_json(config: SweepConfig, records: list[CheckRecord]) -> str:
    return render_json({
        "config": {
            "p_min": config.p_min,
            "p_max": config.p_max,
            "checks": sorted(set(config.checks)),
            "y_rule": config.y_rule,
            "epsilon": str(DEFAULT_EPSILON),
            "seed": config.seed,
        },
        "records": [r.to_json() for r in records],
    })


# ---------------------------------------------------------------------------
# output plumbing


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path by renaming a finished temporary file
    over it; each chunk is written as it is made.

    A symlink's target is what gets replaced, and a path that exists but is
    not a regular file (a FIFO, a device) is written through, not replaced,
    once every chunk is made.  A replaced file keeps its mode; a new one
    gets the mode that open(path, "w") would give it, 0o666 less the umask.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with _spooled(chunks) as spool, open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(spool)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _spooled(chunks: Iterable[str]) -> Iterator[Iterable[str]]:
    """The chunks written to an anonymous temporary file and read back: an
    error while they are made leaves nothing to copy."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(chunks)
        spool.seek(0)
        yield spool


def emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text chunks to out_path, or to stdout once all are made."""
    if out_path is not None:
        write_atomic(out_path, chunks)
    else:
        with _spooled(chunks) as spool:
            sys.stdout.writelines(spool)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def render_json(fields: dict) -> str:
    """`fields` with `schema_version` added, as indented JSON."""
    import json
    payload = {"schema_version": SCHEMA_VERSION, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(columns: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """A header line of `columns`, then one line per tuple in `rows`, whose
    values are in column order.  None is an empty cell and a list is its
    items joined by spaces."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"


def emit_record(args: argparse.Namespace, fields: dict) -> None:
    if args.format == "json":
        chunks = [render_json(fields)]
    else:
        chunks = render_csv(tuple(fields), [tuple(fields.values())])
    emit(chunks, args.out)


# ---------------------------------------------------------------------------
# argument parsing / subcommands


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 2 through `main`, as one
    `error:` line like every other usage error."""

    def error(self, message: str):
        raise ValueError(message)


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)


def _add_range(sub: argparse.ArgumentParser) -> None:
    """The flags `spectrum` and `verify` share: a prime range and a pool."""
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, default=1009)
    sub.add_argument("--workers", type=int, default=1)


def parse_fraction(text: str) -> Fraction:
    """text ('19/100', '0.19', '2', '1e-3') as an exact fraction whose
    |numerator| and denominator are at most MAX_FRACTION_TERM; ValueError
    for anything else, including inf, nan and a zero denominator."""
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent and len(exponent.group(1)) > 6:
        raise ValueError("decimal exponent of more than six digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator") from exc
    if max(abs(value.numerator), value.denominator) > MAX_FRACTION_TERM:
        raise ValueError(f"numerator or denominator above {MAX_FRACTION_TERM}")
    return value


def _cmd_spectrum(args: argparse.Namespace) -> int:
    render = spectrum_csv if args.format == "csv" else spectrum_json
    with contextlib.closing(run_spectrum_sweep(args.pmin, args.pmax, args.workers)) as rows:
        try:
            emit(render(rows), args.out)
        except ChainViolationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    if (args.p - 1) * args.y**2 > MAX_COUNT_WORK:
        raise ValueError(
            f"(p-1)*y^2 for p={args.p}, y={args.y} exceeds the work bound "
            f"{MAX_COUNT_WORK}"
        )
    if args.p - 1 > MAX_COUNT_RESIDUES:
        raise ValueError(
            f"p={args.p} would print {args.p - 1} counts, above the output "
            f"bound {MAX_COUNT_RESIDUES}"
        )
    counts = subsetprod.subset_product_counts(args.p, args.y).counts
    residues = range(1, args.p)
    # a count may pass str()'s digit limit (CPython 3.10.7+; 0 is none): lift it here only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            chunks = [render_json({"p": args.p, "y": args.y,
                                   "counts": {str(b): str(counts[b]) for b in residues}})]
        else:
            chunks = render_csv(("b", "count"), ((b, counts[b]) for b in residues))
        emit(chunks, args.out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    ctx = modcore.build_context(args.p)
    y = subsetprod.progression_coverage_threshold(ctx, args.a, args.d, args.ymax)
    emit_record(args, {"p": args.p, "a": args.a, "d": args.d, "ymax": args.ymax, "y": y})
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    from . import friable
    # a flag the mode does not read is refused, as argparse refuses unknown ones
    if args.mode == "threeway" and args.k is not None:
        raise ValueError("--k is not read in threeway mode, whose k is 3")
    if args.mode == "kway" and args.epsilon is not None:
        raise ValueError("--epsilon is not read in kway mode")
    if args.n > MAX_FACTORIZE_N:
        raise ValueError(f"n={args.n} exceeds the size cap {MAX_FACTORIZE_N}")
    epsilon = str(DEFAULT_EPSILON) if args.epsilon is None else args.epsilon
    try:
        eps = parse_fraction(epsilon)
    except ValueError as exc:
        raise ValueError(f"bad epsilon {epsilon!r}: {exc}") from exc
    # kway forms y^(k+1); ranged and threeway (k = 3) form y^(k b + 2a)
    k = 3 if args.k is None else args.k
    a, b = (0, 1) if args.mode == "kway" else (eps.numerator, eps.denominator)
    if (k * b + 2 * a + 1) * args.y.bit_length() > MAX_FACTORIZE_POWER_BITS:
        read = "" if args.mode == "kway" else f", epsilon={eps}"  # kway reads none
        raise ValueError(
            f"y={args.y}, k={k}{read} would form powers of y above "
            f"the cap of {MAX_FACTORIZE_POWER_BITS} bits"
        )
    if args.mode == "kway":
        factors = friable.greedy_k_factorization(args.n, args.y, k)
    elif args.mode == "ranged":
        factors = friable.ranged_factorization(args.n, args.y, k, eps)
    else:
        factors = friable.three_way_factorization(args.n, args.y, eps)
    emit_record(args, {
        "n": args.n,
        "y": args.y,
        "k": k,
        "epsilon": None if args.mode == "kway" else str(eps),
        "mode": args.mode.upper(),
        "factors": list(factors),
    })
    return 0


def _cmd_charsum(args: argparse.Namespace) -> int:
    from . import characters
    total = characters.char_sum(modcore.build_context(args.p), args.k, args.t)
    emit_record(args, {
        "p": args.p, "k": args.k, "t": args.t,
        "re": total.real, "im": total.imag, "abs": abs(total),
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = ALL_CHECKS if args.checks is None else tuple(args.checks.split(","))
    cfg = SweepConfig(p_min=args.pmin, p_max=args.pmax, checks=checks, y_rule=args.y_rule,
                      workers=args.workers, seed=args.seed)
    records = run_verification_suite(cfg)
    for rec in records:
        print(f"{rec.status:6s} {rec.name}  [{rec.elapsed:.2f}s]", file=sys.stderr)
    emit([verification_report_json(cfg, records)], args.out)
    failed = [r for r in records if r.status == "FAIL"]
    if failed:
        print(f"{len(failed)} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subproducts",
        description="Subset-product coverage toolkit: sweeps and verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="sweep (p, n2, g, G, y, yprime) rows")
    _add_range(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sc = subs.add_parser("counts", help="exact subset-product counts for one (p, y)")
    _add_output(sc)
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--y", type=int, required=True)
    sc.set_defaults(func=_cmd_counts)

    sv = subs.add_parser("coverage", help="progression coverage threshold")
    _add_output(sv)
    sv.add_argument("--p", type=int, required=True)
    sv.add_argument("--a", type=int, required=True)
    sv.add_argument("--d", type=int, required=True)
    sv.add_argument("--ymax", type=int, required=True)
    sv.set_defaults(func=_cmd_coverage)

    sf = subs.add_parser("factorize", help="bounded-part factorization")
    # None until _cmd_factorize, which refuses a flag the mode does not read
    sf.add_argument("--epsilon", default=None)
    _add_output(sf)
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--y", type=int, required=True)
    sf.add_argument("--k", type=int, default=None)
    sf.add_argument("--mode", choices=("kway", "ranged", "threeway"), default="threeway")
    sf.set_defaults(func=_cmd_factorize)

    ss = subs.add_parser("charsum", help="one character partial sum")
    _add_output(ss)
    ss.add_argument("--p", type=int, required=True)
    ss.add_argument("--k", type=int, required=True)
    ss.add_argument("--t", type=int, required=True)
    ss.set_defaults(func=_cmd_charsum)

    # the verification report is always JSON (nested metrics): no --format
    sy = subs.add_parser("verify", help="run the verification suite")
    _add_range(sy)
    sy.add_argument("--y-rule", default="p^0.6")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", default=None)
    sy.add_argument("--checks", default=None,
                    help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    sy.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out == "":  # refused before any work, as are the two below
            raise FileNotFoundError("--out '' names no file")
        if args.out and os.path.isdir(args.out):
            raise IsADirectoryError(f"--out {args.out!r} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(os.path.realpath(args.out))):
            raise FileNotFoundError(f"--out {args.out!r} is not in an existing directory")
        return args.func(args)
    except (ValueError, WorkerLostError) as exc:  # parser and range errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
