"""Span tracing of `subproducts` from outside the program.

`install` replaces each traced function at every module attribute that
holds it, so calls the program makes through a name imported elsewhere
(`subsetprod.build_context`, `characters.largest_prime_factor`, the
check table in `cli`) are caught as well.  Each call records one span
(name, start, end, parent, work) in memory; the spans are written out
once, after the timed call returns.

Work counts come from the call's arguments, never from inside the
program, so the count of a call is known before it runs.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

CHECKS = (
    "dp_vs_enumeration", "dp_vs_characters", "mass_conservation",
    "spectrum_chain", "theorem_error", "lemma_circle", "lemma_z_grid",
    "lemma_near_one", "polya_vinogradov", "burgess_ratio", "kway_random",
    "ranged_random", "kway_sharpness", "ranged_sharpness", "friable_count",
)

# Traced functions per module, and the statistics reported for each.
TRACED = {
    "modcore": {
        "build_context": ("calls", "self_s", "table_entries"),
        "least_primitive_root": ("self_s",),
        "primes_up_to": ("calls", "self_s", "sieved"),
        "least_nonresidue": ("self_s",),
        "group_generation_bound": ("self_s",),
    },
    "subsetprod": {
        "coverage_consume": ("calls", "self_s", "bits_rotated"),
        "coverage_threshold": ("self_s",),
        "prime_coverage_threshold": ("self_s",),
        "subset_product_counts": ("calls", "self_s", "dp_cells"),
        "error_report": ("self_s",),
        "enumerate_subset_counts": ("self_s",),
        "counts_via_characters": ("self_s",),
    },
    "characters": {
        "polya_vinogradov_scan": ("self_s", "terms"),
        "log_product_one_plus_chi": ("calls", "self_s"),
        "near_one_exceptions": ("calls", "self_s"),
        "char_sum": ("calls", "self_s"),
        "max_nonprincipal_sum": ("self_s",),
        "char_angle": ("calls", "self_s"),
        "z_lemma_check": ("calls", "self_s"),
    },
    "friable": {
        "greedy_k_factorization": ("calls", "self_s"),
        "ranged_factorization": ("calls", "self_s"),
        "largest_prime_factor": ("calls", "self_s"),
        "psi_exact": ("self_s",),
        "kway_feasible": ("self_s",),
        "ranged_feasible": ("self_s",),
    },
    "cli": {
        **{f"check_{name}": ("self_s",) for name in CHECKS},
        "run_spectrum_sweep": ("self_s",),
        "spectrum_csv": ("self_s",),
        "verification_report_json": ("self_s",),
        "write_atomic": ("self_s",),
    },
}


def _rotated_bits(state, n, *_args, **_kwargs) -> int:
    ctx = state.ctx
    r = n % ctx.p
    return ctx.order if r and ctx.ind[r] else 0


# Work done by one call, from its arguments.
WORK = {
    "modcore.build_context": lambda p, *a, **k: p,
    "modcore.primes_up_to": lambda n, *a, **k: max(n + 1, 0),
    "subsetprod.coverage_consume": _rotated_bits,
    "subsetprod.subset_product_counts": lambda p, y, *a, **k: p * y,
    "characters.polya_vinogradov_scan": lambda ctx, *a, **k: (ctx.order - 1) * ctx.p,
}

OVERHEAD_METRIC = "trace.overhead_s"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [
        f"{module}.{func}.{stat}"
        for module, funcs in TRACED.items()
        for func, stats in funcs.items()
        for stat in stats
    ]
    return names + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Keeps spans as (name, start, end, parent, work) tuples in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = work(*args, **kwargs) if work else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, amount)

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of `package` (with `cli` imported)."""
        modules = [package] + [getattr(package, m) for m in TRACED]
        for module_name, funcs in TRACED.items():
            home = getattr(package, module_name)
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{module_name}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every function `install` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time and work per traced function."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        spans = self.spans
        for name, start, end, parent, amount in spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration
            work[name] = work.get(name, 0) + amount
            if parent >= 0:
                parent_name = spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
        out: dict[str, float] = {}
        for name in metric_names():
            if name == OVERHEAD_METRIC:
                continue
            func, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = calls.get(func, 0)
            elif stat == "self_s":
                out[name] = self_s.get(func, 0.0)
            else:
                out[name] = work.get(func, 0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[name], *rest] for name, *rest in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "names": names, "spans": rows}, fh)
