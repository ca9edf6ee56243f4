"""The CLI's lazy-import contract, each case in a fresh interpreter.

``multispace.cli`` registers every package module in ``sys.modules`` when it
is imported, but runs an analysis module's body only on first attribute
access, so a command loads only the modules it uses.  Tracing tools that wrap
the package's functions read all nine modules from ``sys.modules`` right
after importing the CLI.  The package itself executes only ``core`` and
``errors``; the names it takes from ``foundations`` load that module on
first use.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

MODULES = (
    "core", "foundations", "constructions", "multigroup", "multiring",
    "multivector", "multimetric", "io", "cli",
)

PUBLIC_NAMES = [
    "BinaryRelation", "Component", "Equation", "ExprChain", "FiniteUniverse", "HOLE",
    "MultiSpace", "NeutrosophicComponent", "OpTable", "UNDEFINED", "automorphisms",
    "check_boolean_laws", "classify_table", "equivalence_classes", "eval_chain",
    "find_inverses", "find_units", "is_faithful", "neutrosophic_union", "poset_check",
    "poset_extremes", "solve_equation", "solve_system", "valuate_union",
]


def run_fresh(code: str, *flags: str) -> str:
    """stdout of ``code`` run by a new interpreter, started with ``flags``,
    that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, *flags, "-c", textwrap.dedent(code)]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_registers_every_module():
    out = run_fresh(f"""
        import sys
        import multispace, multispace.cli
        print(all("multispace." + m in sys.modules for m in {MODULES!r}))
        print(multispace.__all__ == {PUBLIC_NAMES!r})
        print(all(hasattr(multispace, name) for name in multispace.__all__))
    """)
    assert out.split() == ["True", "True", "True"]


def test_multigroup_check_leaves_unused_modules_unexecuted():
    out = run_fresh(f"""
        import contextlib, io, sys, types
        from multispace import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", {str(FIXTURES / "z8_group.mspace.json")!r}, "--level", "multigroup"])
        print(code)
        for m in ("constructions", "multiring", "multimetric", "multivector", "io", "multigroup"):
            print(m, type(sys.modules["multispace." + m]) is types.ModuleType)
        print("fractions" in sys.modules)
    """)
    assert out.splitlines() == [
        "0",
        "constructions False",
        "multiring False",
        "multimetric False",
        "multivector False",
        "io True",
        "multigroup True",
        "False",
    ]


def test_io_alone_parses_vector_metric_and_map_files():
    out = run_fresh(f"""
        from multispace import io
        mvs = io.vector_space_from_dict(io.load_path({str(FIXTURES / "three_lines.vector.json")!r}))
        tables = io.metric_components_from_dict(io.load_path({str(FIXTURES / "two_component.metric.json")!r}))
        mapping = io.mapping_from_dict(io.load_path({str(FIXTURES / "two_constants.map.json")!r}))
        print(len(mvs.components), [len(t.points) for t in tables], sorted(mapping.mapping))
    """)
    assert out.strip() == "3 [2, 2] ['a', 'b', 'c', 'd']"


# the cases below run under ``-S``, so that no site hook imports modules first
def test_multigroup_check_builds_no_dataclass_and_leaves_foundations_unexecuted():
    out = run_fresh(f"""
        import contextlib, io, sys, types
        from multispace import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", {str(FIXTURES / "z8_group.mspace.json")!r}, "--level", "multigroup"])
        print(code)
        print("dataclasses" in sys.modules, "inspect" in sys.modules)
        print(type(sys.modules["multispace.foundations"]) is types.ModuleType)
    """, "-S")
    assert out.splitlines() == ["0", "False False", "False"]


def test_importing_the_package_does_not_load_foundations():
    out = run_fresh("""
        import sys
        import multispace
        print("multispace.foundations" in sys.modules)
    """, "-S")
    assert out.split() == ["False"]


def test_public_names_resolve_without_the_cli():
    out = run_fresh("""
        import multispace
        print(all(hasattr(multispace, name) for name in multispace.__all__))
        import multispace.foundations as foundations
        print(multispace.BinaryRelation is foundations.BinaryRelation)
        print(foundations.FiniteUniverse is multispace.FiniteUniverse)
        print(hasattr(multispace, "no_such_name"))
    """, "-S")
    assert out.split() == ["True", "True", "True", "False"]
