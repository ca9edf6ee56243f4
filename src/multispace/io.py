"""Bit-exact JSON file formats.

Structure files (``.mspace.json``) hold a universe, operation tables with
``null`` for undefined entries, and components; vector files hold generator
matrices over GF(p); metric files hold rational grids as [numerator,
denominator] pairs.  Rendering is canonical, so parse/render round-trips are
byte-identical.

The vector, metric and map parsers import ``multivector``, ``multimetric``
and ``fractions`` when called, so reading a structure file loads none of them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .core import Component, FiniteUniverse, MultiSpace, OpTable
from .errors import ContractError, InputError

if TYPE_CHECKING:
    from fractions import Fraction

    from .multimetric import MappingTable, MetricTable
    from .multivector import MultiVectorSpace

FORMAT_VERSION = "1"


def _malformed(what: str, exc: Exception) -> InputError:
    """The error for a malformed file; a plain KeyError is a missing key."""
    reason = f"missing key {exc.args[0]!r}" if type(exc) is KeyError else exc
    return InputError(f"malformed {what} file: {reason}")


def _int(x, where: str) -> int:
    """An integer field read exactly: only a JSON integer, never a float, bool or string."""
    if type(x) is not int:
        raise ValueError(f"{where}: {x!r} is not an integer")
    return x


def space_to_dict(ms: MultiSpace, construction: Optional[dict] = None) -> dict:
    names = ms.universe.elements
    out = {
        "format_version": FORMAT_VERSION,
        "kind": "multispace",
        "universe": list(names),
        "operations": [
            {
                "name": t.name,
                "domain": [names[i] for i in t.domain],
                "table": [
                    [None if v is None else names[v] for v in row] for row in t.entries
                ],
            }
            for t in ms.ops
        ],
        "components": [
            {
                "name": c.name,
                "carrier": [names[i] for i in c.carrier],
                "ops": list(c.op_names),
                "double": c.double,
            }
            for c in ms.components
        ],
    }
    if construction is not None:
        out["construction"] = construction
    return out


def space_from_dict(data: dict) -> tuple[MultiSpace, Optional[dict]]:
    try:
        universe = FiniteUniverse.of(data["universe"])
        ops = []
        for spec in data["operations"]:
            domain = [universe.index(n) for n in spec["domain"]]
            table = [
                [None if v is None else universe.index(v) for v in row]
                for row in spec["table"]
            ]
            ops.append(OpTable(spec["name"], universe, domain, table))
        components = []
        for spec in data["components"]:
            if not isinstance(spec["name"], str):  # component names key dicts downstream
                raise TypeError(f"component name {spec['name']!r} is not a string")
            components.append(
                Component(
                    spec["name"],
                    tuple(sorted(universe.index(n) for n in spec["carrier"])),
                    tuple(spec["ops"]),
                    bool(spec.get("double", False)),
                )
            )
        return MultiSpace(universe, components, ops), data.get("construction")
    except (KeyError, TypeError, ContractError) as exc:
        raise _malformed("structure", exc) from exc


def vector_space_to_dict(mvs: MultiVectorSpace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "multivector",
        "field_order": mvs.ambient.p,
        "ambient_dimension": mvs.ambient.n,
        "components": [
            {"name": c.name, "generators": [list(g) for g in c.generators]}
            for c in mvs.components
        ],
    }


def vector_space_from_dict(data: dict) -> MultiVectorSpace:
    from .multivector import AmbientSpace, MultiVectorSpace

    try:
        ambient = AmbientSpace(*(_int(data[key], key) for key in ("field_order", "ambient_dimension")))
        gens = [[tuple(_int(x, f"component {c}, row {i}, column {j}") for j, x in enumerate(v, 1))
                 for i, v in enumerate(spec["generators"], 1)] for c, spec in enumerate(data["components"], 1)]
        names = [spec["name"] for spec in data["components"]]
        return MultiVectorSpace.from_generators(ambient, gens, names)
    except (KeyError, TypeError, ValueError, ContractError) as exc:
        raise _malformed("vector", exc) from exc


def _frac_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def metric_components_to_dict(components) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "multimetric",
        "components": [
            {
                "points": list(t.points),
                "d": [[_frac_pair(v) for v in row] for row in t.d],
            }
            for t in components
        ],
    }


def metric_components_from_dict(data: dict) -> list[MetricTable]:
    from fractions import Fraction

    from .multimetric import MetricTable

    def entry(v, c: int, i: int, j: int) -> Fraction:
        where = f"component {c}, row {i}, column {j}"
        den = _int(v[1], where)
        if den == 0:
            raise InputError(f"malformed metric file: {where}: zero denominator")
        return Fraction(_int(v[0], where), den)

    try:
        out = []
        for c, spec in enumerate(data["components"], 1):
            rows = [
                [entry(v, c, i, j) for j, v in enumerate(row, 1)]
                for i, row in enumerate(spec["d"], 1)
            ]
            out.append(MetricTable.from_rows(spec["points"], rows))
        return out
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _malformed("metric", exc) from exc


def mapping_to_dict(table: MappingTable) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "mapping",
        "map": dict(sorted(table.mapping.items())),
    }


def mapping_from_dict(data: dict) -> MappingTable:
    from .multimetric import MappingTable

    try:
        return MappingTable(dict(data["map"]))
    except (KeyError, TypeError) as exc:
        raise _malformed("mapping", exc) from exc


def render(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def parse_text(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputError("top level of a file must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {version!r}")
    if "kind" not in data:
        raise InputError("file is missing its kind field")
    if not isinstance(data["kind"], str):
        raise InputError(f"kind must be a string, not {data['kind']!r}")
    return data


def load_path(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_text(handle.read())


def save_path(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render(data))
