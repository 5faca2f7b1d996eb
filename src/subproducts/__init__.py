"""Exact desk-scale toolkit for subset-product coverage of residue classes mod p."""

_MODULES = frozenset({
    "characters", "checks", "cli", "config", "friable", "modcore", "output", "subsetprod",
    "sweep",
})


def __getattr__(name: str):
    # PEP 562: `subproducts.friable` works after a bare `import subproducts`,
    # and a command loads only the modules it runs
    if name in _MODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
