"""Command-line front end: ``check``, ``construct`` and ``analyze``.

Exit codes: 0 = the checked property holds / analysis succeeded, 1 = the
property fails or a prerequisite verifier rejects the input (witness in the
report), 2 = malformed input or a size bound hit (``SizeLimitError`` is a
``MultiSpaceError``).  ``--json`` emits the machine-readable report, which
carries every number the text report mentions.

The analysis modules are registered lazily: each is in ``sys.modules`` once
this module is imported, but its body runs on first attribute access, so a
command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from .core import MultiSpace, automorphisms
from .errors import ContractError, InputError, MultiSpaceError


def _lazy(name: str):
    """The package module ``name``, registered now and executed on first attribute access."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


constructions, foundations, io, multigroup, multiring, multimetric, multivector = map(
    _lazy, ("constructions", "foundations", "io", "multigroup", "multiring", "multimetric", "multivector")
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for line in _textify(report):
        print(line)


def _textify(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_textify(value, prefix + "  "))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}{key}: {json.dumps(value, default=str)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


class _Params(dict):
    """``key=value`` parameters; reading one that was not given is an input error."""

    def __missing__(self, key):
        raise MultiSpaceError(f"missing parameter {key}=...")


def _parse_params(tokens: list[str]) -> _Params:
    params = _Params()
    for token in tokens:
        if "=" not in token:
            raise MultiSpaceError(f"parameters look like key=value; got {token!r}")
        key, value = token.split("=", 1)
        params[key] = value
    return params


# the parser of each file kind; lambdas, so that ``io`` loads on first use
PARSERS = {
    "multispace": lambda data: io.space_from_dict(data)[0],
    "multivector": lambda data: io.vector_space_from_dict(data),
    "multimetric": lambda data: io.metric_components_from_dict(data),
    "mapping": lambda data: io.mapping_from_dict(data),
}


def _load(path: str, kind: str, data: dict | None = None):
    """The object in the file at ``path``, read unless given as ``data``, of kind ``kind``."""
    if data is None:
        data = io.load_path(path)
    if data["kind"] != kind:
        raise MultiSpaceError(f"{path} holds a {data['kind']!r} file; expected {kind!r}")
    return PARSERS[kind](data)


def _summary(ms: MultiSpace) -> dict:
    return {
        "elements": len(ms.universe),
        "components": len(ms.components),
        "operations": len(ms.ops),
        "completed": ms.is_completed(),
    }


# -- check -----------------------------------------------------------------

# the file kind each check level reads; ``auto`` takes the level named after the file's kind
LEVELS = {
    "multispace": "multispace",
    "multigroup": "multispace",
    "multiring": "multispace",
    "multivector": "multivector",
    "multimetric": "multimetric",
}


def cmd_check(args) -> tuple[dict, bool]:
    data = io.load_path(args.path)
    level = args.level
    if level == "auto":
        level = data["kind"]
        if level not in LEVELS.values():
            raise MultiSpaceError(f"cannot check files of kind {level!r}")
    loaded = _load(args.path, LEVELS[level], data)
    if level == "multivector":
        dims = [multivector.rank(loaded.ambient, c.vectors) for c in loaded.components]
        report = {
            "level": "multivector",
            "verdict": True,
            "field_order": loaded.ambient.p,
            "ambient_dimension": loaded.ambient.n,
            "component_dims": dims,
        }
        return report, True
    if level == "multimetric":
        verdicts = [multimetric.validate_metric(t) for t in loaded]
        report = {
            "level": "multimetric",
            "verdict": all(v.valid for v in verdicts),
            "components": [
                {"points": len(t.points), "valid": v.valid, "axiom": v.axiom, "witness": v.witness}
                for t, v in zip(loaded, verdicts)
            ],
        }
        return report, report["verdict"]
    return _check_space(level, loaded)


def _check_space(level: str, ms: MultiSpace) -> tuple[dict, bool]:
    if level == "multispace":
        return {"level": "multispace", "verdict": True, **_summary(ms)}, True
    if level == "multigroup":
        result = multigroup.is_multigroup(ms)
        report = {
            "level": "multigroup",
            "verdict": result.verdict,
            "completed": result.complete,
            "group_checks": [
                {"component": c, "op": o, "ok": ok, "witness": _witness(ms, w)}
                for c, o, ok, w in result.group_checks
            ],
            "distribution": [
                {"pair": list(d.pair), "orientation": d.orientation} for d in result.distribution
            ],
            "witness": _witness(ms, result.witness),
        }
        return report, result.verdict
    result = multiring.is_multiring(ms)
    report = {
        "level": "multiring",
        "verdict": result.verdict,
        "completed": result.complete,
        "multifield": result.multifield,
        "ring_checks": [
            {"component": c, "witness": _witness(ms, w)} for c, w in result.ring_checks
        ],
        "zero_divisors": [
            {"component": c, "pairs": [[ms.universe.name(a), ms.universe.name(b)] for a, b in pairs]}
            for c, pairs in result.zero_divisors
        ],
        "witness": _witness(ms, result.witness),
    }
    return report, result.verdict


def _witness(ms: MultiSpace, w):
    if w is None:
        return None
    out = {}
    for key, value in w.items():
        if key in ("pair", "triple") and isinstance(value, tuple):
            out[key] = [ms.universe.name(v) if isinstance(v, int) else v for v in value]
        elif key in ("element", "result", "g", "h", "conjugate") and isinstance(value, int):
            out[key] = ms.universe.name(value)
        else:
            out[key] = value
    return out


# -- construct ---------------------------------------------------------------

CONSTRUCTIONS = ("latin", "fan", "cyclic_union", "partition_cyclic")


def cmd_construct(args) -> tuple[dict, bool]:
    params = _parse_params(args.params)
    seed = int(params.get("seed", args.seed))
    try:
        ms, recipe = _build(args.kind, params, seed)
    except ContractError as exc:  # a builder's precondition on its parameters
        raise InputError(str(exc)) from None
    data = io.space_to_dict(ms, recipe)
    io.save_path(args.out, data)
    reparsed = _load(args.out, "multispace")
    report = {
        "written": args.out,
        "kind": args.kind,
        **_summary(reparsed),
        "round_trip": io.render(io.space_to_dict(reparsed, recipe)) == io.render(data),
    }
    return report, True


def _build(kind: str, params: _Params, seed: int) -> tuple[MultiSpace, dict]:
    """The space of construction ``kind`` and the recipe that records it."""
    if kind == "latin":
        n = int(params["n"])
        k = int(params["k"])
        squares = constructions.gen_latin_squares(n, k, seed)
        symbols = [str(i + 1) for i in range(n)]
        ms = constructions.latin_multispace(symbols, squares)
        recipe = {"n": n, "k": k, "seed": seed}
    elif kind == "cyclic_union":
        orders = [int(x) for x in params["orders"].split(",")]
        ms = constructions.disjoint_cyclic_union(orders)
        recipe = {"orders": orders}
    elif kind == "fan":
        base = params["base"]
        if not base.startswith("Z"):
            raise MultiSpaceError("fan base must look like Z<order> (a cyclic group)")
        order = int(base[1:])
        count = int(params["n"])
        policy = params.get("policy", "absorb")
        _, table = constructions.cyclic_group_table(order)
        ms = constructions.fan_extension(table, [f"h{i + 1}" for i in range(count)], policy)
        recipe = {"base": base, "n": count, "policy": policy}
    else:
        modulus = int(params["modulus"])
        blocks = [block.split(",") for block in params["blocks"].split("|")]
        core = params["core"].split(",")
        _, ambient = constructions.cyclic_group_table(modulus, name="o")
        ms = constructions.partition_cyclic(ambient, blocks, core)
        recipe = {"modulus": modulus, "blocks": params["blocks"], "core": params["core"]}
    return ms, {"kind": kind, **recipe}


# -- analyze -----------------------------------------------------------------

def _analyze_space(sub: str, ms: MultiSpace, args) -> tuple[dict, bool]:
    """The structure-file analyses; ``cmd_analyze`` names a ContractError's witness."""
    if sub == "cosets":
        if not args.sub:
            raise MultiSpaceError("this analysis needs --sub with a comma list of element names")
        op_names = tuple(args.sub_ops.split(",")) if args.sub_ops else None
        view = multigroup.SubsetView.of_names(ms, args.sub.split(","), op_names)
        cosets = multigroup.coset_partition(view)
        report = {
            "analysis": "cosets",
            "subset": ms.universe.names(view.elements),
            "cosets": [ms.universe.names(c) for c in cosets],
            "count": len(cosets),
        }
        return report, True
    if sub == "series":
        orientation = args.orientation.split(",") if args.orientation else [t.name for t in ms.ops]
        result = multigroup.maximal_normal_series(ms, orientation)
        return _series_report("series", ms, orientation, result), result.invariant
    if sub == "ideal-chain":
        orientation = (
            args.orientation.split(",") if args.orientation else [c.name for c in ms.components]
        )
        result = multiring.multiideal_chain(ms, orientation)
        return _series_report("ideal-chain", ms, orientation, result), result.invariant
    if sub == "decompose":
        result = multiring.decompose_artin(ms)
        report = {
            "analysis": "decompose",
            "valid": result.all_valid,
            "components": [
                {
                    "component": c.component,
                    "idempotents": ms.universe.names(c.family),
                    "pieces": [ms.universe.names(p) for p in c.pieces],
                    "intersections_trivial": c.intersections_trivial,
                    "reconstruction_exact": c.reconstruction_exact,
                    "unique_sums": c.unique_sums,
                    "pieces_are_ideals": c.pieces_are_ideals,
                    "two_sided_symmetric": c.two_sided_symmetric,
                }
                for c in result.components
            ],
        }
        return report, result.all_valid
    maps = automorphisms(ms, permute_ops=not args.no_permute_ops)
    union = ms.element_union()
    report = {
        "analysis": "automorphisms",
        "count": len(maps),
        "elements": ms.universe.names(union),
        "maps": [[ms.universe.name(union[i]) for i in sigma] for sigma in maps],
    }
    return report, True


# the file kind each analysis reads
ANALYSES = {
    "cosets": "multispace",
    "series": "multispace",
    "ideal-chain": "multispace",
    "decompose": "multispace",
    "dim": "multivector",
    "automorphisms": "multispace",
    "fixed-point": "multimetric",
    "sequence": "multimetric",
}


def cmd_analyze(args) -> tuple[dict, bool]:
    sub = args.subcommand
    kind = ANALYSES[sub]
    loaded = _load(args.path, kind)
    if kind == "multivector":
        result = multivector.dim_formula(loaded)
        report = {
            "analysis": "dim",
            "formula_value": result.formula_value,
            "greedy_value": result.greedy_value,
            "agree": result.agree,
            "intersections": [
                {"components": list(combo), "dim": d} for combo, d in result.intersection_dims
            ],
        }
        return report, True

    if kind == "multimetric":
        space = multimetric.MultiMetricSpace(loaded)
        if sub == "fixed-point":
            if not args.map:
                raise MultiSpaceError("fixed-point needs --map with a mapping file")
            mapping = _load(args.map, "mapping")
            contraction = multimetric.is_contraction(space, mapping)
            result = multimetric.fixed_points(space, mapping)
            report = {
                "analysis": "fixed-point",
                "contraction": contraction.verdict,
                "alpha": str(contraction.alpha) if contraction.alpha is not None else None,
                "fixed_points": list(result.points),
                "count": result.count,
                "bound_ok": result.bound_ok,
                "orbits_ok": result.orbits_ok,
            }
            return report, result.bound_ok is not False and result.orbits_ok is not False
        if not args.tail:
            raise MultiSpaceError("sequence needs --tail with a comma list of tail points")
        spec = multimetric.SequenceSpec(
            tuple(args.prefix.split(",")) if args.prefix else (),
            args.tail_kind,
            tuple(args.tail.split(",")),
        )
        result = multimetric.analyze_sequence(space, spec)
        report = {
            "analysis": "sequence",
            "convergent": result.convergent,
            "limit": result.limit,
            "cauchy": result.cauchy,
            "tail_component": result.tail_component,
        }
        return report, True

    try:
        return _analyze_space(sub, loaded, args)
    except ContractError as exc:
        if exc.witness is None:
            raise
        raise ContractError(exc.message, _witness(loaded, exc.witness)) from None


def _series_report(name: str, ms: MultiSpace, orientation, result) -> dict:
    return {
        "analysis": name,
        "orientation": list(orientation),
        "chain_count": result.chain_count,
        "lengths": list(result.lengths),
        "length_invariant": result.invariant,
        "length": result.length,
        "chains": [
            {
                "levels": [ms.universe.names(level) for level in chain.levels],
                "step_ops": list(chain.step_ops),
            }
            for chain in result.chains[:50]
        ],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multispace", description="verify, construct and analyze finite multi-spaces"
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable reports")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized constructions")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run a structure verifier on a file", parents=[shared])
    check.add_argument("path")
    check.add_argument("--level", default="auto", choices=["auto", *LEVELS])

    construct = commands.add_parser("construct", help="build a structure file", parents=[shared])
    construct.add_argument("kind", choices=CONSTRUCTIONS)
    construct.add_argument("params", nargs="*", help="key=value parameters")
    construct.add_argument("--out", required=True)

    analyze = commands.add_parser("analyze", help="run an analysis on a file", parents=[shared])
    analyze.add_argument("subcommand", choices=list(ANALYSES))
    analyze.add_argument("path")
    analyze.add_argument("--sub", help="comma list of element names")
    analyze.add_argument("--sub-ops", help="comma list of operation names for --sub")
    analyze.add_argument("--orientation", help="comma list ordering the operations")
    analyze.add_argument("--map", help="mapping file for fixed-point")
    analyze.add_argument("--prefix", help="comma list of sequence prefix points")
    analyze.add_argument("--tail-kind", default="constant", choices=["constant", "periodic"])
    analyze.add_argument("--tail", help="comma list of tail points")
    analyze.add_argument(
        "--no-permute-ops",
        action="store_true",
        help="require automorphisms to preserve each operation name",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"check": cmd_check, "construct": cmd_construct, "analyze": cmd_analyze}[args.command]
    try:
        report, holds = handler(args)
        _emit(report, args.json)
        return EXIT_HOLDS if holds else EXIT_FAILS
    except ContractError as exc:
        print(f"prerequisite failed: {exc}", file=sys.stderr)
        return EXIT_FAILS
    except KeyError as exc:
        # str() of a KeyError is the repr of its argument
        print(f"input error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except (MultiSpaceError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
