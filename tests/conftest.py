"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

from subproducts import cli, modcore

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="session")
def tracing():
    """The benchmark's tracer, loaded from its file as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cold_prime_caches():
    # the small primes and the least-factor table are built once per process,
    # on first use; a test of how they are built or read starts without them,
    # as it would in a process of its own
    modcore.small_primes.cache_clear()
    modcore._least_factors.cache_clear()


@pytest.fixture(scope="session")
def spectrum_csv(tmp_path_factory):
    """The bytes of `spectrum --pmin 3 --pmax 30000`, the pinned CSV, made
    once for the test that pins its digest and the test that checks its
    rows."""
    out = tmp_path_factory.mktemp("spectrum") / "spectrum.csv"
    assert cli.main(["spectrum", "--pmin", "3", "--pmax", "30000", "--out", str(out)]) == 0
    return out.read_bytes()
