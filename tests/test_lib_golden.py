"""The library's verdicts and witnesses against their golden record,
``tests/golden/lib_sweep.json``.

Regenerate the file with ``tests/golden/make_lib_golden.py`` when a verdict
or witness changes on purpose.
"""

import importlib.util
import pathlib

HERE = pathlib.Path(__file__).parent
_spec = importlib.util.spec_from_file_location("make_lib_golden", HERE / "golden" / "make_lib_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_lib_sweep_matches_golden():
    want = golden.GOLDEN.read_text().splitlines()
    got = golden.sweep().splitlines()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(want) == len(got), f"{len(want)} golden lines, {len(got)} swept"
    assert not changed, f"{len(changed)} cases differ; first: {changed[0]}"
