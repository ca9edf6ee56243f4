"""The CLI contract against its golden record, ``tests/golden/cli_sweep.json``.

Every case runs in-process from the repository root; regenerate the file
with ``tests/golden/make_cli_golden.py`` when the contract changes on purpose.
"""

import importlib.util
import json
import pathlib

import pytest

from multispace import cli

HERE = pathlib.Path(__file__).parent
_spec = importlib.util.spec_from_file_location("make_cli_golden", HERE / "golden" / "make_cli_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(golden.GOLDEN.read_text())


def test_golden_file_matches_the_generator(recorded):
    assert [run[0] for run in golden.CONSTRUCT_RUNS[: len(cli.CONSTRUCTIONS)]] == list(cli.CONSTRUCTIONS)
    assert recorded["files"] == golden.malformed_files()
    assert [case["argv"] for case in recorded["cases"]] == golden.commands()


def test_cli_sweep_matches_golden(recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(golden.ROOT)
    changed = [
        (want, got) for want, got in zip(recorded["cases"], golden.sweep(tmp_path)) if want != got
    ]
    assert not changed, f"{len(changed)} cases differ; first: {changed[0]}"
