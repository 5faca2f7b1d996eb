"""The CI workflow keeps its commands in committed scripts under ci/, so
that they run the same way outside GitHub Actions."""

import os
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_steps_call_executable_scripts():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*run:\s*(.*)$", text, re.MULTILINE)
    # every step that runs a command runs one script, and every script runs
    assert runs and all(re.fullmatch(r"ci/[\w.-]+\.sh", run) for run in runs), runs
    assert sorted(runs) == sorted(f"ci/{name}" for name in os.listdir(ROOT / "ci"))
    for run in runs:
        script = ROOT / run
        assert script.is_file() and os.access(script, os.X_OK), run
        assert script.read_text(encoding="utf-8").startswith("#!/usr/bin/env bash\n"), run
