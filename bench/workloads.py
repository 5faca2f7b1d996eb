"""The benchmark's workloads: the `subproducts` command line each one runs.

A workload is a fixed command; the seed reaches the program only through
`verify --seed`.  Spectrum inputs do not depend on the seed: it only picks
the rows that the output checks recompute from scratch.
"""

from __future__ import annotations

WORKLOADS = ("verify-default", "verify-scans", "spectrum-wide")

# verify's check groups, in the order its report lists them
ALL_CHECKS = ("spectrum", "theorem", "lemmas", "factorization", "friable", "burgess")
SCAN_CHECKS = "spectrum,lemmas,factorization,friable,burgess"

# spectrum-wide's (pmin, pmax) and worker count; the tiny size is for the self-test
SPECTRUM_RANGE, TINY_SPECTRUM_RANGE = (3, 30_000), (3, 2_000)
SPECTRUM_WORKERS = 2

# verify runs at its default pmax; the tiny size caps it for the self-test
VERIFY_PMAX, TINY_VERIFY_PMAX = 1009, 101


def workers(workload: str) -> int:
    """Worker processes the workload's command uses."""
    return SPECTRUM_WORKERS if workload == "spectrum-wide" else 1


def spectrum_range(tiny: bool) -> tuple[int, int]:
    return TINY_SPECTRUM_RANGE if tiny else SPECTRUM_RANGE


def verify_pmax(tiny: bool) -> int:
    return TINY_VERIFY_PMAX if tiny else VERIFY_PMAX


def verify_checks(workload: str) -> list[str]:
    return SCAN_CHECKS.split(",") if workload == "verify-scans" else list(ALL_CHECKS)


def command(
    workload: str, seed: int, out: str, tiny: bool = False, one_worker: bool = False
) -> list[str]:
    """argv for `subproducts.cli.main`, writing its output to `out`."""
    if workload in ("verify-default", "verify-scans"):
        argv = ["verify", "--seed", str(seed)]
        if workload == "verify-scans":
            argv += ["--checks", SCAN_CHECKS]
        if tiny:
            argv += ["--pmax", str(TINY_VERIFY_PMAX)]
    elif workload == "spectrum-wide":
        pmin, pmax = spectrum_range(tiny)
        n = 1 if one_worker else workers(workload)
        argv = ["spectrum", "--pmin", str(pmin), "--pmax", str(pmax), "--workers", str(n)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return argv + ["--out", out]
