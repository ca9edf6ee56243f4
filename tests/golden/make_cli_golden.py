"""Regenerate ``cli_sweep.json``, the golden record of the CLI contract.

The sweep runs ``multispace.cli.main`` in-process on every fixture through
every ``check`` level and ``analyze`` subcommand, with and without
``--json``, then on each ``construct`` kind, on bad ``construct``
parameters and on malformed files.  Each case records its argv, exit code,
stdout and stderr.  Paths are relative to the repository root, and ``$TMP``
stands for a scratch directory that holds the malformed files and the
``construct`` outputs.  argparse errors and ``--help`` are left out: their
text differs between Python versions.

Run from anywhere, with the package importable:

    PYTHONPATH=src python tests/golden/make_cli_golden.py

``tests/test_cli_golden.py`` replays the file and compares.  A change to the
contract regenerates the file in the same commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from multispace import cli

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("cli_sweep.json")
FIXTURES = ROOT / "tests" / "fixtures"
TMP = "$TMP"

# the options an analysis runs with on every fixture, one run per list;
# the routes themselves come from the CLI's tables
ANALYSIS_OPTIONS = {
    "cosets": [["--sub", "e,c1_2,c2_2,c2_4"]],
    "automorphisms": [[], ["--no-permute-ops"]],
    "fixed-point": [["--map", "tests/fixtures/two_constants.map.json"]],
    "sequence": [["--prefix", "a,b", "--tail", "c"], ["--tail-kind", "periodic", "--tail", "a,b"]],
}

# runs beyond the fixture sweep: prerequisite witnesses, missing options,
# explicit orientations and option files of the wrong kind
EXTRA_ANALYSES = [
    ["analyze", "series", "tests/fixtures/z8_group.mspace.json", "--orientation", "+1"],
    ["analyze", "series", "tests/fixtures/latin3.mspace.json", "--orientation", "x1,x2"],
    ["analyze", "series", "tests/fixtures/z4z6_group.mspace.json", "--orientation", "+2,+1"],
    ["analyze", "series", "tests/fixtures/z8_group.mspace.json", "--orientation", "nope"],
    ["analyze", "ideal-chain", "tests/fixtures/z12_ring.mspace.json", "--orientation", "R1"],
    ["analyze", "cosets", "tests/fixtures/z8_group.mspace.json", "--sub", "e,c1_2"],
    ["analyze", "cosets", "tests/fixtures/z8_group.mspace.json", "--sub", "e,c1_4", "--sub-ops", "+1"],
    ["analyze", "cosets", "tests/fixtures/latin3.mspace.json", "--sub", "e"],
    ["analyze", "cosets", "tests/fixtures/z8_group.mspace.json"],
    ["analyze", "fixed-point", "tests/fixtures/two_component.metric.json"],
    ["analyze", "fixed-point", "tests/fixtures/two_component.metric.json", "--map", "tests/fixtures/two_component.metric.json"],
    ["analyze", "sequence", "tests/fixtures/two_component.metric.json"],
    ["analyze", "sequence", "tests/fixtures/two_component.metric.json", "--tail", "zz"],
]

# one valid run of each construct kind first, then bad parameters
CONSTRUCT_RUNS = [
    ["latin", "n=3", "k=2", "seed=1"],
    ["fan", "base=Z2", "n=3", "policy=absorb"],
    ["cyclic_union", "orders=3,3"],
    ["partition_cyclic", "modulus=6", "blocks=1,2,0|3,4,5,0", "core=0"],
    ["latin", "n=3", "k=2", "--seed", "4"],
    ["fan", "base=Z3", "n=2", "policy=undefined"],
    ["cyclic_union", "orders=0"],
    ["latin", "n=1", "k=1"],
    ["fan", "base=Z0", "n=2"],
    ["latin", "n=3"],
    ["latin", "n=3", "k=99"],
    ["latin", "n=x", "k=1"],
    ["fan", "base=Q8", "n=2"],
    ["fan", "base=Z2", "n=2", "policy=bogus"],
    ["cyclic_union", "orders=a"],
    ["cyclic_union", "orders=2", "seed=x"],
    ["partition_cyclic", "modulus=6", "blocks=|", "core=0"],
    ["latin", "n=3", "k=1", "oops"],
    ["partition_cyclic", "modulus=6", "blocks=1,2,0|3,4,5,0", "core=zz"],
]


def _edited(name: str, edit) -> str:
    data = json.loads((FIXTURES / name).read_text())
    edit(data)
    return json.dumps(data, indent=2) + "\n"


def malformed_files() -> dict[str, str]:
    """Name -> text of each malformed file written under ``$TMP``."""
    z8 = (FIXTURES / "z8_group.mspace.json").read_text()
    return {
        "cut.mspace.json": z8[: len(z8) // 2],
        "version.mspace.json": _edited("z8_group.mspace.json", lambda d: d.update(format_version="9")),
        "nokind.mspace.json": _edited("z8_group.mspace.json", lambda d: d.pop("kind")),
        "listkind.mspace.json": _edited("z8_group.mspace.json", lambda d: d.update(kind=[])),
        "groupkind.mspace.json": _edited("z8_group.mspace.json", lambda d: d.update(kind="multigroup")),
        "array.mspace.json": "[]\n",
        "nouniverse.mspace.json": _edited("z8_group.mspace.json", lambda d: d.pop("universe")),
        "unknown.mspace.json": _edited(
            "z8_group.mspace.json", lambda d: d["components"][0]["carrier"].__setitem__(0, "nosuch")
        ),
        "duplicate.mspace.json": _edited("latin3.mspace.json", lambda d: d["universe"].__setitem__(1, "1")),
        "zero.metric.json": _edited(
            "two_component.metric.json", lambda d: d["components"][0]["d"][0].__setitem__(1, [1, 0])
        ),
        "nofield.vector.json": _edited("three_lines.vector.json", lambda d: d.pop("field_order")),
        "nomap.map.json": _edited("two_constants.map.json", lambda d: d.pop("map")),
        "cut.metric.json": (FIXTURES / "two_component.metric.json").read_text()[:40],
    }


def commands() -> list[list[str]]:
    fixtures = [f"tests/fixtures/{p.name}" for p in sorted(FIXTURES.iterdir())]
    out = []
    for path in fixtures:
        for level in ["auto", *cli.LEVELS]:
            out += [["check", path, "--level", level], ["--json", "check", path, "--level", level]]
        for analysis in cli.ANALYSES:
            for options in ANALYSIS_OPTIONS.get(analysis, [[]]):
                argv = ["analyze", analysis, path, *options]
                out += [argv, ["--json", *argv]]
    out += EXTRA_ANALYSES
    for i, params in enumerate(CONSTRUCT_RUNS):
        argv = ["construct", *params, "--out", f"{TMP}/built{i}.mspace.json"]
        out += [argv, ["--json", *argv]] if i < len(cli.CONSTRUCTIONS) else [argv]
    for name in malformed_files():
        path = f"{TMP}/{name}"
        out.append(["check", path])
        if name.endswith(".mspace.json"):
            out.append(["analyze", "series", path])
        elif name.endswith(".metric.json"):
            out.append(["analyze", "sequence", path, "--tail", "a"])
        elif name.endswith(".vector.json"):
            out.append(["analyze", "dim", path])
        else:
            out.append(
                ["analyze", "fixed-point", "tests/fixtures/two_component.metric.json", "--map", path]
            )
    return out


def run(argv: list[str], tmp: str) -> dict:
    """One case: ``argv`` run in-process with ``$TMP`` bound to ``tmp``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([arg.replace(TMP, tmp) for arg in argv])
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue().replace(tmp, TMP),
        "stderr": stderr.getvalue().replace(tmp, TMP),
    }


def sweep(tmp: pathlib.Path) -> list[dict]:
    """Every case, run from the repository root with its files under ``tmp``."""
    for name, text in malformed_files().items():
        (tmp / name).write_text(text)
    return [run(argv, str(tmp)) for argv in commands()]


def main() -> None:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        cases = sweep(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps({"files": malformed_files(), "cases": cases}, indent=1) + "\n")
    print(f"{GOLDEN.relative_to(ROOT)}: {len(cases)} cases", file=sys.stderr)


if __name__ == "__main__":
    main()
