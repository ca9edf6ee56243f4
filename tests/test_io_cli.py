import functools
import json
import operator
import pathlib
import re
import time

import pytest

from multispace import io
from multispace.cli import main
from multispace.constructions import disjoint_cyclic_union, zn_ring_space
from multispace.errors import ContractError, InputError, SizeLimitError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
    def test_fixture_round_trips_byte_identical(self, name):
        text = (FIXTURES / name).read_text()
        data = io.parse_text(text)
        kind = data["kind"]
        if kind == "multispace":
            ms, construction = io.space_from_dict(data)
            again = io.render(io.space_to_dict(ms, construction))
        elif kind == "multivector":
            again = io.render(io.vector_space_to_dict(io.vector_space_from_dict(data)))
        elif kind == "multimetric":
            again = io.render(io.metric_components_to_dict(io.metric_components_from_dict(data)))
        else:
            again = io.render(io.mapping_to_dict(io.mapping_from_dict(data)))
        assert again == text

    def test_parse_render_identity_on_fresh_spaces(self):
        for ms in (disjoint_cyclic_union([2, 3]), zn_ring_space(6)):
            data = io.space_to_dict(ms)
            reparsed, _ = io.space_from_dict(json.loads(io.render(data)))
            assert io.space_to_dict(reparsed) == data

    def test_format_version_enforced(self):
        with pytest.raises(InputError):
            io.parse_text('{"format_version": "9", "kind": "multispace"}')

    def test_parse_error_position(self):
        with pytest.raises(InputError, match="line"):
            io.parse_text("{broken")

    def test_kind_must_be_a_string(self):
        with pytest.raises(InputError, match="kind must be a string"):
            io.parse_text('{"format_version": "1", "kind": []}')

    def test_zero_denominator_is_malformed_metric(self):
        for c, i, j in [(1, 1, 2), (2, 2, 1)]:
            data = json.loads((FIXTURES / "two_component.metric.json").read_text())
            data["components"][c - 1]["d"][i - 1][j - 1] = [1, 0]
            message = f"^malformed metric file: component {c}, row {i}, column {j}: zero denominator$"
            with pytest.raises(InputError, match=message):
                io.metric_components_from_dict(data)

    @pytest.mark.parametrize(
        "c, change, message",
        [
            (1, lambda spec: spec["points"].__setitem__(1, "a"), "duplicate point labels"),
            (2, lambda spec: spec["d"][1].pop(), "distance grid is not 2x2"),
            (2, lambda spec: spec["d"].pop(), "distance grid is not 2x2"),
        ],
        ids=["repeated-labels", "short-row", "short-grid"],
    )
    def test_metric_table_errors_are_malformed_metric(self, c, change, message):
        # these came through bare, as "input error: duplicate point labels"
        data = json.loads((FIXTURES / "two_component.metric.json").read_text())
        change(data["components"][c - 1])
        with pytest.raises(InputError, match=f"^malformed metric file: component {c}: {message}$"):
            io.metric_components_from_dict(data)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_latin_fixture_multigroup_fails(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "latin3.mspace.json"), "--level", "multigroup")
        assert code == 1
        assert "associativity" in out

    def test_z6_ring_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "z6_ring.mspace.json"), "--level", "multiring")
        assert code == 0

    def test_group_fixture_passes(self, capsys):
        code, _, _ = run(capsys, "check", str(FIXTURES / "z4z6_group.mspace.json"), "--level", "multigroup")
        assert code == 0

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.mspace.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line" in err

    def test_duplicate_universe_symbol_exit_two(self, tmp_path, capsys):
        path = tmp_path / "dup.mspace.json"
        path.write_text(
            '{"format_version": "1", "kind": "multispace", "universe": ["a", "a"],'
            ' "operations": [], "components": []}\n'
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize(
        "fixture, level, what",
        [("z4z6_group.mspace.json", "multigroup", "structure"), ("three_lines.vector.json", "auto", "vector")],
    )
    def test_two_components_with_one_name_exit_two(self, tmp_path, capsys, fixture, level, what):
        # z4z6_group with C2 renamed C1 checked with exit 0 and reported C1 twice
        data = json.loads((FIXTURES / fixture).read_text())
        data["components"][1]["name"] = data["components"][0]["name"]
        path = tmp_path / fixture
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(path), "--level", level)
        assert code == 2
        assert err == f"input error: malformed {what} file: component names must be unique\n"

    @pytest.mark.parametrize("argv", [["check"], ["analyze", "fixed-point"]], ids=["check", "fixed-point"])
    def test_empty_metric_component_exit_two(self, tmp_path, capsys, argv):
        # fixed-point ended in an IndexError traceback, and the component made
        # every map a contraction
        data = json.loads((FIXTURES / "two_component.metric.json").read_text())
        data["components"].append({"points": [], "d": []})
        path = tmp_path / "empty.metric.json"
        path.write_text(json.dumps(data))
        mapping = ["--map", str(FIXTURES / "two_constants.map.json")] if "fixed-point" in argv else []
        code, _, err = run(capsys, *argv, str(path), *mapping)
        assert code == 2
        assert err == "input error: malformed metric file: component 3: a component needs at least one point\n"

    @pytest.mark.parametrize(
        "ab, code, message",
        [
            ([5, 2], 1, None),  # 5/2 > 1 + 1 breaks the triangle inequality
            ([2.5, 1], 2, "component 1, row 1, column 2: 2.5 is not an integer"),
            ([5, 2.0], 2, "component 1, row 1, column 2: 2.0 is not an integer"),
            ([True, 1], 2, "component 1, row 1, column 2: True is not an integer"),
            (["5", 2], 2, "component 1, row 1, column 2: '5' is not an integer"),
            ([5, "2"], 2, "component 1, row 1, column 2: '2' is not an integer"),
        ],
    )
    def test_metric_entries_read_exactly(self, tmp_path, capsys, ab, code, message):
        one = [1, 1]
        grid = [[[0, 1], ab, one], [ab, [0, 1], one], [one, one, [0, 1]]]
        path = tmp_path / "inexact.metric.json"
        path.write_text(json.dumps({"format_version": "1", "kind": "multimetric",
                                    "components": [{"points": ["a", "b", "c"], "d": grid}]}))
        got, out, err = run(capsys, "check", str(path))
        assert got == code
        assert ("triangle" in out) if message is None else (f"malformed metric file: {message}" in err)

    @pytest.mark.parametrize(
        "fixture, path, value, message",
        [
            ("three_lines.vector.json", ["field_order"], 2.0, "field_order: 2.0 is not an integer"),
            ("three_lines.vector.json", ["ambient_dimension"], True, "ambient_dimension: True is not an integer"),
            ("three_lines.vector.json", ["field_order"], "3", "field_order: '3' is not an integer"),
            *(("three_lines.vector.json", ["components", 1, "generators", 0, 1], x,
               f"component 2, row 1, column 2: {x!r} is not an integer") for x in (1.5, False, "1")),
            ("latin3.mspace.json", ["universe"], "123", "universe: '123' is not an array"),
            ("latin3.mspace.json", ["universe", 0], 1, "universe: 1 is not a string"),
            ("latin3.mspace.json", ["components", 0, "name"], [], "component 1, name: [] is not a string"),
            ("latin3.mspace.json", ["components", 0, "carrier"], "1", "component 1, carrier: '1' is not an array"),
            ("latin3.mspace.json", ["operations", 0, "domain"], "1", "operation 1, domain: '1' is not an array"),
            ("latin3.mspace.json", ["operations", 0, "table", 0], "1", "operation 1, table row 1: '1' is not an array"),
            ("latin3.mspace.json", ["components", 0, "double"], "false",
             "component 1, double: 'false' is not a boolean"),
            ("latin3.mspace.json", ["components", 0, "double"], 0, "component 1, double: 0 is not a boolean"),
            ("two_component.metric.json", ["components", 0, "points"], "ab",
             "component 1, points: 'ab' is not an array"),
            ("two_component.metric.json", ["components", 0, "d", 0, 0], [0, 1, 1],
             "component 1, row 1, column 1: [0, 1, 1] is not a [numerator, denominator] pair"),
            ("three_lines.vector.json", ["components", 0, "generators", 0], "1",
             "component 1, row 1: '1' is not an array"),
            ("two_constants.map.json", ["map"], [["a", "a"]], "map: [['a', 'a']] is not an object"),
            ("two_constants.map.json", ["map", "a"], ["a"], "map, 'a': ['a'] is not a string"),
        ],
    )
    def test_fields_read_exactly(self, tmp_path, capsys, fixture, path, value, message):
        data = json.loads((FIXTURES / fixture).read_text())
        functools.reduce(operator.getitem, path[:-1], data)[path[-1]] = value
        (tmp_path / fixture).write_text(json.dumps(data))
        if fixture.endswith(".map.json"):
            metric = str(FIXTURES / "two_component.metric.json")
            argv = ["analyze", "fixed-point", metric, "--map", str(tmp_path / fixture)]
        else:  # the multigroup level reads double
            argv = ["check", str(tmp_path / fixture), "--level", "multigroup" if "mspace" in fixture else "auto"]
        code, _, err = run(capsys, *argv)
        what = {"mspace": "structure", "metric": "metric", "vector": "vector", "map": "mapping"}[fixture.split(".")[1]]
        assert code == 2
        assert f"malformed {what} file: {message}" in err

    def test_metric_fixture(self, capsys):
        code, _, _ = run(capsys, "check", str(FIXTURES / "two_component.metric.json"))
        assert code == 0

    def test_invalid_metric_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "triangle_violation.metric.json"))
        assert code == 1
        assert "triangle" in out

    @pytest.mark.parametrize(
        "p, n, size",
        [(2**61 - 1, 1, "2305843009213693951^1"), (2, 10**8, "2^100000000")],
        ids=["prime-2^61-1", "dimension-10^8"],
    )
    def test_vector_file_beyond_the_ambient_bound_exit_two(self, tmp_path, capsys, p, n, size):
        # the first ran trial division up to 2^30.5 before the bound; the
        # second computed 2^(10^8), then could not print it and was reported
        # as a malformed file
        data = {
            "format_version": "1", "kind": "multivector", "field_order": p, "ambient_dimension": n,
            "components": [{"name": "V1", "generators": [[1]]}],
        }
        message = f"ambient space enumerates p^n vectors; {size} exceeds AMBIENT_SIZE_BOUND = 4096"
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as exc:
            io.vector_space_from_dict(data)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == message
        path = tmp_path / "big.vector.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err == f"input error: {message}\n"

    def test_vector_fixture(self, capsys):
        code, _, _ = run(capsys, "check", str(FIXTURES / "three_lines.vector.json"), "--json")
        assert code == 0

    def test_wrong_level_for_kind(self, capsys):
        code, _, err = run(capsys, "check", str(FIXTURES / "two_component.metric.json"), "--level", "multigroup")
        assert code == 2

    def test_ring_addition_without_identity_exit_one(self, tmp_path, capsys):
        from multispace.constructions import zn_ring_tables
        from multispace.core import Component, MultiSpace, OpTable

        u, _, mul = zn_ring_tables(4)
        add = OpTable.from_function("+", u, range(4), lambda x, y: 1)
        ms = MultiSpace(u, [Component("R1", tuple(range(4)), ("+", "*"), double=True)], [add, mul])
        path = tmp_path / "constant_add.mspace.json"
        path.write_text(io.render(io.space_to_dict(ms)))
        code, out, _ = run(capsys, "--json", "check", str(path), "--level", "multiring")
        assert code == 1
        report = json.loads(out)
        assert report["witness"] == {"component": "R1", "kind": "no_unit"}
        assert not report["multifield"]

    @pytest.mark.parametrize(
        "name, level",
        [("three_lines.vector.json", "multivector"), ("two_component.metric.json", "multimetric")],
    )
    def test_file_read_once(self, capsys, monkeypatch, name, level):
        calls = []

        def load_path(path, _load=io.load_path):
            calls.append(path)
            return _load(path)

        monkeypatch.setattr(io, "load_path", load_path)
        for extra in ([], ["--level", level]):
            calls.clear()
            code, _, _ = run(capsys, "check", str(FIXTURES / name), *extra)
            assert code == 0 and calls == [str(FIXTURES / name)]

    def test_level_other_than_the_file_kind(self, capsys):
        path = str(FIXTURES / "three_lines.vector.json")
        for level, expected in [
            ("multimetric", "multimetric"),
            ("multispace", "multispace"),
            ("multigroup", "multispace"),
            ("multiring", "multispace"),
        ]:
            code, _, err = run(capsys, "check", path, "--level", level)
            assert code == 2
            assert err == f"input error: {path} holds a 'multivector' file; expected {expected!r}\n"

    def test_json_report_carries_numbers(self, capsys):
        code, out, _ = run(capsys, "--json", "check", str(FIXTURES / "latin3.mspace.json"))
        report = json.loads(out)
        assert report["elements"] == 3 and report["operations"] == 2


class TestConstruct:
    def test_latin_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "latin.mspace.json"
        code, out, _ = run(capsys, "construct", "latin", "n=3", "k=2", "seed=1", "--out", str(out_path))
        assert code == 0
        code, _, _ = run(capsys, "check", str(out_path))
        assert code == 0
        data = io.load_path(out_path)
        assert data["construction"] == {"kind": "latin", "n": 3, "k": 2, "seed": 1}
        # the written tables really are Latin squares
        ms, _ = io.space_from_dict(data)
        for table in ms.ops:
            want = set(table.domain)
            for i in range(len(table.domain)):
                assert set(table.entries[i]) == want
                assert {row[i] for row in table.entries} == want

    def test_cyclic_union(self, tmp_path, capsys):
        out_path = tmp_path / "u.mspace.json"
        code, _, _ = run(capsys, "construct", "cyclic_union", "orders=3,3", "--out", str(out_path))
        assert code == 0
        ms, _ = io.space_from_dict(io.load_path(out_path))
        assert len(ms.components) == 2

    def test_fan(self, tmp_path, capsys):
        out_path = tmp_path / "fan.mspace.json"
        code, _, _ = run(
            capsys, "construct", "fan", "base=Z2", "n=3", "policy=absorb", "--out", str(out_path)
        )
        assert code == 0
        ms, _ = io.space_from_dict(io.load_path(out_path))
        assert len(ms.components) == 3

    def test_partition_cyclic(self, tmp_path, capsys):
        out_path = tmp_path / "p.mspace.json"
        code, _, _ = run(
            capsys,
            "construct",
            "partition_cyclic",
            "modulus=6",
            "blocks=1,2,0|3,4,5,0",
            "core=0",
            "--out",
            str(out_path),
        )
        assert code == 0
        ms, _ = io.space_from_dict(io.load_path(out_path))
        assert len(ms.ops) == 3 and ms.is_completed()

    def test_missing_parameter_exit_two(self, tmp_path, capsys):
        code, out, err = run(capsys, "construct", "latin", "n=3", "--out", str(tmp_path / "x.json"))
        assert code == 2 and out == ""
        assert err == "input error: missing parameter k=...\n"

    @pytest.mark.parametrize(
        "params, message",
        [
            (["cyclic_union", "orders=0"], "component orders must be >= 1"),
            (["latin", "n=1", "k=1"], "side must be >= 2"),
            (["fan", "base=Z0", "n=2"], "fan extension needs a group table as its (additive) base"),
        ],
    )
    def test_builder_precondition_exit_two(self, tmp_path, capsys, params, message):
        out_path = tmp_path / "x.mspace.json"
        code, out, err = run(capsys, "construct", *params, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"
        assert not out_path.exists()

    def test_capacity_error_exit_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "latin", "n=3", "k=99", "--out", str(tmp_path / "x.json")
        )
        assert code == 2


class TestAnalyze:
    def test_series_on_z8(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "series", str(FIXTURES / "z8_group.mspace.json"),
            "--orientation", "+1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["length"] == 3 and report["length_invariant"]

    def test_ideal_chain_on_z6(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "ideal-chain", str(FIXTURES / "z6_ring.mspace.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["length"] == 2 and report["chain_count"] == 2

    def test_decompose_z6(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "decompose", str(FIXTURES / "z6_ring.mspace.json")
        )
        assert code == 0
        report = json.loads(out)
        pieces = report["components"][0]["pieces"]
        assert sorted(map(sorted, pieces)) == [["0", "2", "4"], ["0", "3"]]

    def test_cosets(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "cosets", str(FIXTURES / "z4z6_group.mspace.json"),
            "--sub", "e,c1_2,c2_2,c2_4",
        )
        assert code == 0
        report = json.loads(out)
        assert sum(len(c) for c in report["cosets"]) == 9

    def test_dim_three_lines(self, capsys):
        code, out, _ = run(capsys, "--json", "analyze", "dim", str(FIXTURES / "three_lines.vector.json"))
        assert code == 0
        report = json.loads(out)
        assert report["formula_value"] == 3
        assert report["greedy_value"] == 2
        assert report["agree"] is False

    def test_automorphisms(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "automorphisms", str(FIXTURES / "latin3.mspace.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == len(report["maps"]) >= 1

    def test_fixed_point(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "fixed-point", str(FIXTURES / "two_component.metric.json"),
            "--map", str(FIXTURES / "two_constants.map.json"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 2 and report["bound_ok"]

    def test_sequence(self, capsys):
        code, out, _ = run(
            capsys, "--json", "analyze", "sequence", str(FIXTURES / "two_component.metric.json"),
            "--prefix", "a,b", "--tail-kind", "constant", "--tail", "c",
        )
        assert code == 0
        report = json.loads(out)
        assert report["convergent"] and report["limit"] == "c"

    def test_reports_deterministic(self, capsys):
        args = (
            "--json", "analyze", "decompose", str(FIXTURES / "z6_ring.mspace.json")
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_sequence_without_tail_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "analyze", "sequence", str(FIXTURES / "two_component.metric.json")
        )
        assert code == 2 and out == ""
        assert err == "input error: sequence needs --tail with a comma list of tail points\n"

    def test_automorphisms_of_an_operation_leaving_the_union_exit_one(self, tmp_path, capsys):
        from multispace.core import Component, MultiSpace, OpTable
        from multispace.foundations import FiniteUniverse

        u = FiniteUniverse.of(["a", "b", "c"])
        ms = MultiSpace(u, [Component("A", (0, 1), ("+",))], [OpTable("+", u, (0, 1), [[0, 1], [1, 2]])])
        path = tmp_path / "escape.mspace.json"
        path.write_text(io.render(io.space_to_dict(ms)))
        code, out, err = run(capsys, "analyze", "automorphisms", str(path))
        assert code == 1 and out == ""
        assert err == "prerequisite failed: operation '+' leaves the carrier union\n"

    def test_series_prerequisite_failure_exit_one(self, capsys):
        code, _, err = run(
            capsys, "analyze", "series", str(FIXTURES / "latin3.mspace.json"),
            "--orientation", "x1,x2",
        )
        assert code == 1
        assert "prerequisite" in err

    def test_cosets_prerequisite_witness_names_elements(self, capsys):
        code, out, err = run(
            capsys, "analyze", "cosets", str(FIXTURES / "z8_group.mspace.json"), "--sub", "e,c1_2"
        )
        assert code == 1 and out == ""
        assert err == (
            "prerequisite failed: not a sub-multi-group: {'component': 'C1', 'op': '+1', "
            "'kind': 'closure', 'pair': ['c1_2', 'c1_2'], 'result': 'c1_4'}\n"
        )

    def test_series_prerequisite_witness_names_elements(self, capsys):
        code, out, err = run(
            capsys, "analyze", "series", str(FIXTURES / "latin3.mspace.json"), "--orientation", "x1,x2"
        )
        assert code == 1 and out == ""
        assert err == (
            "prerequisite failed: parent is not a multi-group: {'component': 'S', 'op': 'x2', "
            "'kind': 'associativity', 'triple': ['2', '1', '1']}\n"
        )

    def test_ring_prerequisite_witness_names_elements(self, tmp_path, capsys):
        from multispace.core import Component, MultiSpace, OpTable
        from multispace.foundations import FiniteUniverse

        u = FiniteUniverse.of(["z", "a", "b"])
        add = OpTable("+", u, (0, 1, 2), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        mul = OpTable("*", u, (0, 1, 2), [[0, 0, 0], [0, 1, 1], [0, 1, 1]])  # a*(a+a) = a, not b
        ms = MultiSpace(u, [Component("R", (0, 1, 2), ("+", "*"), double=True)], [add, mul])
        path = tmp_path / "not_a_ring.mspace.json"
        path.write_text(io.render(io.space_to_dict(ms)))
        for analysis in ("ideal-chain", "decompose"):
            code, out, err = run(capsys, "analyze", analysis, str(path))
            assert code == 1 and out == ""
            assert err.startswith("prerequisite failed: parent is not a multi-ring: {'component': 'R'")
            assert not re.search(r"\(\d+(, \d+)*\)", err), err

    def test_prerequisite_error_keeps_the_index_witness(self):
        from multispace.multigroup import is_multigroup, maximal_normal_series

        ms, _ = io.space_from_dict(io.load_path(FIXTURES / "latin3.mspace.json"))
        with pytest.raises(ContractError) as caught:
            maximal_normal_series(ms, ["x1", "x2"])
        witness = is_multigroup(ms).witness
        assert caught.value.witness == witness and caught.value.message == "parent is not a multi-group"
        assert str(caught.value) == f"parent is not a multi-group: {witness}"

    def test_unknown_symbol_in_a_structure_file_has_no_stray_quotes(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "z8_group.mspace.json").read_text())
        data["components"][0]["carrier"][0] = "nosuch"
        path = tmp_path / "unknown.mspace.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err == "input error: malformed structure file: unknown symbol 'nosuch'\n"

    def test_missing_key_is_named_as_a_key(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "z8_group.mspace.json").read_text())
        del data["universe"]
        path = tmp_path / "no_universe.mspace.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err == "input error: malformed structure file: missing key 'universe'\n"
        with pytest.raises(InputError) as caught:
            io.mapping_from_dict({})
        assert str(caught.value) == "malformed mapping file: missing key 'map'"

    def test_unknown_symbol_message_has_no_stray_quotes(self, capsys):
        code, out, err = run(
            capsys, "analyze", "cosets", str(FIXTURES / "latin3.mspace.json"), "--sub", "e"
        )
        assert code == 2 and out == ""
        assert err == "input error: unknown symbol 'e'\n"
