"""The small-scope checks of ``tests/test_small_scope.py`` on every table on
three elements: 262,925 tables, 45-80 s on a 2-vCPU host, so this module
lies outside ``testpaths`` and runs as its own step:

    PYTHONPATH=src python -m pytest -q sweep
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_small_scope import CHECKS, every_table  # noqa: E402


@pytest.mark.parametrize("check", CHECKS)
def test_every_table_on_three_elements(check):
    check(every_table(3))
