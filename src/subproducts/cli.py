"""Batch front end: the subcommands, their parser and the verification suite.

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
import os
import sys
import time
from collections.abc import Iterable

# characters, friable, fractions and json load in the checks and commands
# that use them, so a spectrum sweep and its workers carry none of them.
# Every name that the benchmark's tracer patches on this module and that is
# defined elsewhere (the checks, run_spectrum_sweep, spectrum_csv and
# write_atomic) is imported eagerly, by name, and called through this
# module's globals, so each call records its span.  The code lives in modules of its own because, without a bytecode
# cache, the compiler's high-water for the largest module compiled stays in
# the heap of the process and of every spectrum worker it forks.
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
from .config import ALL_CHECKS, SweepConfig, check_theorem_error, parse_fraction
from .output import _spooled, render_csv, render_json, write_atomic
from .sweep import (
    ChainViolationError,
    WorkerLostError,
    run_spectrum_sweep,
    spectrum_csv,
    spectrum_json,
)

# factorize's default epsilon; the verify report's config echoes it.
DEFAULT_EPSILON = "19/100"
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


# ---------------------------------------------------------------------------
# verification suite: the check that reads the sweep, the suite table and
# the report; the y-rule and its theorem check are in config.py, the other
# checks in checks.py


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


# Each group's checks in report order, with the arguments the config gives
# them.  The lambdas call the checks through this module's names, never
# through checks.py or config.py, so a tracer that patches those names sees
# every call.
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
            "epsilon": DEFAULT_EPSILON,
            "seed": config.seed,
        },
        "records": [r.to_json() for r in records],
    })


# ---------------------------------------------------------------------------
# output: the rendering and the atomic write are in output.py


def emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text chunks to out_path, or to stdout once all are made."""
    if out_path is not None:
        write_atomic(out_path, chunks)
    else:
        with _spooled(chunks) as spool:
            sys.stdout.writelines(spool)


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
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
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
