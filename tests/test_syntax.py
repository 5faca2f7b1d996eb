"""Every source and test file parses as Python 3.10, the oldest version
that pyproject.toml's requires-python admits, every exception class of
the package is one that some code catches, every module-level name of the
package is one that some other code in it reads, and so is every method
and property of its classes."""

import ast
import builtins
import importlib
import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _trees(pattern):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in ROOT.glob(pattern)]


def _names(node):
    """The class names an except clause or a class's base list gives."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)}


def test_every_exception_class_is_caught_by_name():
    # bad input raises ValueError, which main prints as one error line; a
    # subclass earns its place only where some code tells it apart
    classes = [node for tree in _trees("src/subproducts/*.py") for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    defined = set()
    # a class is an exception class when a base is one, built in or defined here
    while new := {c.name for c in classes
                  if c.name not in defined and set().union(*map(_names, c.bases)) & errors}:
        defined |= new
        errors |= new
    caught = {name for pattern in ("src/**/*.py", "bench/**/*.py")
              for tree in _trees(pattern) for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in _names(node.type)}
    assert defined and not defined - caught, sorted(defined - caught)


def _traced_names():
    """The module.function names that bench/tracing.py looks up by string,
    with the tracer loaded from its file as the benchmark loads it; none
    once it has no TRACED table."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = getattr(tracing, "TRACED", {})
    return {f"{module}.{name}" for module, names in traced.items() for name in names}


def _defined_names(statement):
    """The names a module-level function, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _read_names(statement):
    """Every name a statement reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


# the traced names that nothing in src/ reads: the tracer's wrapping is
# their only use, and each goes once the tracer stops looking names up
TRACER_ONLY = {"friable.largest_prime_factor", "modcore.primes_up_to",
               "subsetprod.coverage_consume"}


def test_every_helper_has_a_caller_in_src():
    # a name that only tests read is dead code to the program: a reference
    # inside the name's own definition (recursion, a method naming its class)
    # does not count; the names the benchmark's tracer looks up by string
    # are spared until the tracer stops doing so, but only those of
    # TRACER_ONLY may go unread, so no new fork can hide behind the tracer
    statements = [(path.stem, statement, _read_names(statement))
                  for path in sorted((ROOT / "src" / "subproducts").glob("*.py"))
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    spared = _traced_names()
    unread = []
    for module, statement, _ in statements:
        for name in _defined_names(statement):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in read for _, other, read in statements if other is not statement):
                unread.append(f"{module}.{name}")
    tracer_only = spared.intersection(unread)
    assert tracer_only == (TRACER_ONLY if spared else set()), sorted(tracer_only)
    assert not set(unread) - tracer_only, sorted(set(unread) - tracer_only)


def _attribute_reads(node):
    """The attribute names (x.name) that the code under node reads."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_class_member_is_read_in_src():
    # a method or property that only tests read is dead code to the program.
    # Only reads as an attribute count, since a bare name that happens to
    # match (a local variable) does not call the member; a read inside the
    # member's own definition does not count either.  Dunders and overrides
    # of a base class's attribute are spared: Python or the base class calls
    # them.  NamedTuple fields are left out, since a positional unpack
    # (ctx, mask = state) reads them without naming them
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "subproducts").glob("*.py"))}
    reads = sum(map(_attribute_reads, modules.values()), Counter())
    unread = []
    for stem, tree in modules.items():
        module = importlib.import_module(f"subproducts.{stem}")
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        # module-level, so that each class and its bases can be looked up
        assert all(node in tree.body for node in classes), stem
        for node in classes:
            bases = getattr(module, node.name).__mro__[1:]
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__") or any(
                        hasattr(base, name) for base in bases):
                    continue
                if reads[name] == _attribute_reads(member)[name]:
                    unread.append(f"{stem}.{node.name}.{name}")
    assert not unread, unread
