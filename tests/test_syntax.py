"""Every source and test file parses as Python 3.10, the oldest version
that pyproject.toml's requires-python admits, and every exception class of
the package is one that some code catches."""

import ast
import builtins
import pathlib

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
