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


_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean", list: "an array", dict: "an object"}


def _exact(x, kind: type, where: str):
    """A field read exactly: only a JSON value of ``kind``, so never a float,
    bool or string for an integer, a string for an array, or 1 for a boolean."""
    if type(x) is not kind:
        raise ValueError(f"{where}: {x!r} is not {_JSON_TYPES[kind]}")
    return x


def _names(x, where: str) -> list[str]:
    """A JSON array of JSON strings."""
    return [_exact(name, str, where) for name in _exact(x, list, where)]


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
        universe = FiniteUniverse.of(_names(data["universe"], "universe"))
        ops = []
        for k, spec in enumerate(_exact(data["operations"], list, "operations"), 1):
            where = f"operation {k}"
            domain = [universe.index(n) for n in _exact(spec["domain"], list, f"{where}, domain")]
            table = [
                [None if v is None else universe.index(v) for v in _exact(row, list, f"{where}, table row {i}")]
                for i, row in enumerate(_exact(spec["table"], list, f"{where}, table"), 1)
            ]
            ops.append(OpTable(_exact(spec["name"], str, f"{where}, name"), universe, domain, table))
        components = []
        for k, spec in enumerate(_exact(data["components"], list, "components"), 1):
            where = f"component {k}"
            components.append(
                Component(
                    _exact(spec["name"], str, f"{where}, name"),  # component names key dicts downstream
                    tuple(sorted(universe.index(n) for n in _exact(spec["carrier"], list, f"{where}, carrier"))),
                    tuple(_names(spec["ops"], f"{where}, ops")),
                    _exact(spec.get("double", False), bool, f"{where}, double"),
                )
            )
        return MultiSpace(universe, components, ops), data.get("construction")
    except (KeyError, TypeError, ValueError, ContractError) as exc:
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
        ambient = AmbientSpace(*(_exact(data[key], int, key) for key in ("field_order", "ambient_dimension")))
        comps = _exact(data["components"], list, "components")
        gens = [
            [
                tuple(_exact(x, int, f"component {c}, row {i}, column {j}")
                      for j, x in enumerate(_exact(v, list, f"component {c}, row {i}"), 1))
                for i, v in enumerate(_exact(spec["generators"], list, f"component {c}, generators"), 1)
            ]
            for c, spec in enumerate(comps, 1)
        ]
        names = _names([spec["name"] for spec in comps], "component names")
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
        if len(_exact(v, list, where)) != 2:
            raise ValueError(f"{where}: {v!r} is not a [numerator, denominator] pair")
        den = _exact(v[1], int, where)
        if den == 0:
            raise InputError(f"malformed metric file: {where}: zero denominator")
        return Fraction(_exact(v[0], int, where), den)

    try:
        out = []
        for c, spec in enumerate(_exact(data["components"], list, "components"), 1):
            rows = [
                [entry(v, c, i, j) for j, v in enumerate(_exact(row, list, f"component {c}, row {i}"), 1)]
                for i, row in enumerate(_exact(spec["d"], list, f"component {c}, d"), 1)
            ]
            out.append(MetricTable.from_rows(_names(spec["points"], f"component {c}, points"), rows))
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
        mapping = _exact(data["map"], dict, "map")
        for key, image in mapping.items():
            _exact(image, str, f"map, {key!r}")
        return MappingTable(mapping)
    except (KeyError, TypeError, ValueError) as exc:
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
