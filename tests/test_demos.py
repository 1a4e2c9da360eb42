"""The demo scripts are living documentation; keep them running."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path):
    # The demo runs from tmp_path, where a relative PYTHONPATH would not resolve.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_package_doctest():
    import doctest

    import dataeff

    results = doctest.testmod(dataeff)
    assert results.failed == 0
    assert results.attempted > 0
