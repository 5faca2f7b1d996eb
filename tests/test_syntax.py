"""Every source and test file parses as Python 3.10, the oldest version
that pyproject.toml's requires-python admits."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
