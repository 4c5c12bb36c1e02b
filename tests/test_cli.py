"""Scenario runner: exit codes, determinism, report contents."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovmkit
from ovmkit import cli, ovm
from ovmkit.models import lebesgue_identity, single_atom_measure

LEBESGUE_SCENARIO = {
    "kind": "attain",
    "ovm": {"model": "lebesgue_identity", "dim": 2, "cells": 16},
    "target": {"total_fraction": 0.5},
}


class TestRunScenario:
    def test_attain_passes(self):
        report, code = cli.run_scenario(dict(LEBESGUE_SCENARIO))
        assert code == 0
        assert report["pass"] is True
        assert report["schema"] == "ovm-report/2"
        residual = next(c for c in report["checks"] if c["name"] == "residual")
        assert residual["value"] <= 1e-9

    def test_unknown_key_rejected(self):
        scenario = dict(LEBESGUE_SCENARIO, bogus=1)
        report, code = cli.run_scenario(scenario)
        assert code == 1
        assert "bogus" in report["error"]

    def test_unknown_kind_rejected(self):
        report, code = cli.run_scenario({"kind": "nope"})
        assert code == 1
        assert "nope" in report["error"]

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        report, code = cli.run_scenario(str(path))
        assert code == 1

    def test_config_file_round(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(LEBESGUE_SCENARIO), encoding="utf-8")
        report, code = cli.run_scenario(str(path))
        assert code == 0

    def test_byte_identical_reruns(self):
        scenario = {"kind": "convexity",
                    "ovm": {"model": "random_povm", "dim": 2, "cells": 12, "seed": 4},
                    "trials": 20, "seed": 4}
        first, _ = cli.run_scenario(dict(scenario))
        second, _ = cli.run_scenario(dict(scenario))
        assert cli.report_to_json(first) == cli.report_to_json(second)

    def test_report_echo_reruns(self):
        report, _ = cli.run_scenario(dict(LEBESGUE_SCENARIO))
        again, code = cli.run_scenario(report["scenario"])
        assert code == 0
        assert cli.report_to_json(again) == cli.report_to_json(report)

    def test_target_outside_hull_fails_checks(self):
        scenario = dict(LEBESGUE_SCENARIO, target={"total_fraction": 2.0})
        report, code = cli.run_scenario(scenario)
        assert code == 2
        assert "TargetNotInHull" in report["results"]["error"]


class TestKinds:
    def test_paper_example_13(self):
        report, code = cli.run_scenario({"kind": "paper_example_13", "levels": 8})
        assert code == 0
        rows = report["results"]["cells"]
        assert len(rows) == 8
        top = next(r for r in rows if r["n"] == 1)
        assert top["density"] == pytest.approx(0.75, abs=1e-12)
        assert top["rn_entry_nn"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report["results"]["display_formula_discrepancy"]["flagged"] is True

    def test_uhl(self):
        report, code = cli.run_scenario({"kind": "uhl", "cells": 8})
        assert code == 0
        assert report["results"]["kernel_witnesses_found"] == 0
        assert report["results"]["min_distance_to_half_total"] == pytest.approx(0.5)
        assert report["results"]["properties"]["spectral"] is True

    def test_uhl_bad_cells(self):
        report, code = cli.run_scenario({"kind": "uhl", "cells": 1})
        assert code == 1

    def test_paper_example_13_bad_levels(self):
        report, code = cli.run_scenario({"kind": "paper_example_13", "levels": 50})
        assert code == 1

    def test_singular(self):
        report, code = cli.run_scenario(
            {"kind": "singular_34", "measures": 4, "lambdas": [0.1, 0.5, 0.9, 0.3]})
        assert code == 0
        assert report["results"]["achieved_diagonal"] == pytest.approx(
            [0.1, 0.5, 0.9, 0.3], abs=1e-9)

    def test_singular_extremes(self):
        report, code = cli.run_scenario(
            {"kind": "singular_34", "measures": 3, "lambdas": [0.0, 0.0, 0.0]})
        assert code == 0
        assert report["results"]["attain"]["intervals"] == []
        report, code = cli.run_scenario(
            {"kind": "singular_34", "measures": 3, "lambdas": [1.0, 1.0, 1.0]})
        assert code == 0
        assert report["results"]["attain"]["intervals"] == [[0.0, 1.0]]

    def test_singular_bad_lambda(self):
        report, code = cli.run_scenario(
            {"kind": "singular_34", "measures": 2, "lambdas": [0.5, 1.5]})
        assert code == 1

    def test_classical(self):
        report, code = cli.run_scenario(
            {"kind": "classical", "measures": 3, "cells": 32, "trials": 5, "seed": 2})
        assert code == 0
        assert all(row["fractional_count"] <= 3 for row in report["results"]["targets"])

    def test_classical_atomic_exit_two(self):
        atom = single_atom_measure()
        scenario = {"kind": "classical",
                    "measures": [ovm.ovm_to_json(atom)],
                    "targets": [[0.5]]}
        report, code = cli.run_scenario(scenario)
        assert code == 2
        assert "AtomicObstruction" in report["checks"][0]["value"]

    def test_properties_with_expectations(self):
        scenario = {"kind": "properties",
                    "ovm": {"model": "lebesgue_identity", "dim": 2, "cells": 4},
                    "expect": {"positive": True, "spectral": False,
                               "probability": True}}
        report, code = cli.run_scenario(scenario)
        assert code == 0
        assert report["results"]["properties"]["spectral"] is False

    def test_properties_expectation_failure(self):
        scenario = {"kind": "properties",
                    "ovm": {"model": "lebesgue_identity", "dim": 2, "cells": 4},
                    "expect": {"spectral": True}}
        report, code = cli.run_scenario(scenario)
        assert code == 2

    def test_convexity_atomic_expected_failures(self):
        scenario = {"kind": "convexity", "ovm": {"model": "single_atom"},
                    "trials": 25, "seed": 3, "expect": {"failures": 25}}
        report, code = cli.run_scenario(scenario)
        assert code == 0
        assert len(report["results"]["failures"]) == 25


class _Int(int):
    def __repr__(self):
        return "not the integer"


class _Float(float):
    def __repr__(self):
        return "not the float"


def _json_values(unencodable: bool = False):
    """Values as a report holds them: nested dicts, lists and tuples, empty
    ones too; text with non-ASCII, control characters and quotes; nan,
    +-inf, -0.0, subnormal floats and large integers; bool and None; float
    and int subclasses; dict keys of every kind json converts.  With
    ``unencodable``, values and keys that json rejects are mixed in."""
    floats = st.floats(allow_subnormal=True) | st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308, 0.1, -1e-7, 1e16])
    text = st.text(max_size=8) | st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "</script>"])
    integers = st.integers() | st.integers(-10**40, 10**40)
    leaves = (st.none() | st.booleans() | integers | integers.map(_Int) | floats
              | floats.map(np.float64) | floats.map(_Float) | text)
    keys = (text | integers | integers.map(_Int) | floats | floats.map(np.float64)
            | st.booleans() | st.none())
    if unencodable:
        leaves |= st.sampled_from([np.int64(1), np.bool_(True), object, {1}, b"x", 1j])
        keys |= st.sampled_from([(1,), np.int64(2)])
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=5) | st.lists(floats, min_size=1, max_size=6)
                       | st.lists(floats.map(np.float64), min_size=1, max_size=3)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(text, inner, max_size=5)
                       | st.dictionaries(keys, inner, max_size=3)),
        max_leaves=25)


class TestSerialization:
    def test_report_key_sorted(self):
        report, _ = cli.run_scenario(dict(LEBESGUE_SCENARIO))
        text = cli.report_to_json(report)
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert text == cli.report_to_json(parsed)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_json_values() | _json_values(unencodable=True))
    def test_report_to_json_is_json_dumps(self, value):
        # The direct encoder writes json.dumps' bytes, and where json cannot
        # encode a value it raises json's TypeError.
        def outcome(encode):
            try:
                return encode(value)
            except TypeError as exc:
                return f"TypeError: {exc}"

        assert outcome(cli.report_to_json) == outcome(
            lambda v: json.dumps(v, sort_keys=True, indent=2, ensure_ascii=True) + "\n")

    def test_csv_17_digits(self):
        report, _ = cli.run_scenario({"kind": "uhl", "cells": 4})
        text = cli.report_to_csv(report)
        assert text.splitlines()[0].startswith("cells,")
        assert "0.5" in text

    def test_csv_float_formatting(self):
        assert cli._fmt(1 / 3) == "0.33333333333333331"

    def test_write_report_atomic(self, tmp_path):
        out = tmp_path / "sub" / "report.json"
        cli.write_report("hello\n", str(out))
        assert out.read_text(encoding="utf-8") == "hello\n"
        leftovers = [p for p in out.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def _uhl_config(tmp_path) -> Path:
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"kind": "uhl", "cells": 4}), encoding="utf-8")
    return config


def _run_in_child(config: Path) -> subprocess.CompletedProcess:
    """``ovmkit run --config`` in a fresh interpreter, report to stdout."""
    # The child imports the same ovmkit as this process, however it
    # was put on the path.
    src = str(Path(ovmkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ovmkit.cli", "run", "--config", str(config)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


class TestParserReuse:
    """One parser serves every main call of a process, as a fresh one would."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self):
        parser = cli.build_parser()
        assert parser.parse_args(["attain", "--dim", "3"]).dim == 3
        assert parser.parse_args(["attain"]).dim == 2

    def test_list_default_is_fresh_per_parse(self):
        parser = cli.build_parser()
        first = parser.parse_args(["singular-34"])
        first.lambdas.append(0.7)
        assert parser.parse_args(["singular-34"]).lambdas == [0.1, 0.5, 0.9, 0.3]

    def test_in_process_reports_match_a_fresh_process(self, tmp_path):
        config = _uhl_config(tmp_path)
        child = _run_in_child(config)
        assert child.returncode == 0
        outs = [tmp_path / name for name in ("a.json", "b.json")]
        assert cli.main(["attain", "--dim", "3", "--cells", "6",
                         "--out", str(tmp_path / "attain.json")]) == 0
        assert cli.main(["uhl", "--config", str(config), "--out", str(outs[0])]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(outs[1])]) == 0
        for out in outs:
            assert out.read_bytes() == child.stdout.encode("utf-8")


class TestMain:
    def test_main_attain(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["attain", "--dim", "2", "--cells", "8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["pass"] is True

    def test_main_run_config(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(LEBESGUE_SCENARIO), encoding="utf-8")
        out = tmp_path / "r.json"
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0

    def test_main_byte_identical_files(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"kind": "convexity",
                                      "ovm": {"model": "random_povm", "dim": 2,
                                              "cells": 10, "seed": 5},
                                      "trials": 10, "seed": 5}), encoding="utf-8")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["run", "--config", str(config), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_main_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli.main(["paper-example-13", "--levels", "4",
                         "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("n,cell_lo")
        assert len(lines) == 5

    @pytest.mark.parametrize("command", ["run", "uhl"])
    def test_format_flag_overrides_config(self, tmp_path, command):
        # An explicit --format json wins over the config's "format": "csv",
        # as every flag wins over its key; without the flag the key holds.
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "uhl", "cells": 4, "format": "csv"}),
                          encoding="utf-8")
        flagged, plain = tmp_path / "flagged.out", tmp_path / "plain.out"
        assert cli.main([command, "--config", str(config), "--format", "json",
                         "--out", str(flagged)]) == 0
        assert cli.main([command, "--config", str(config), "--out", str(plain)]) == 0
        assert json.loads(flagged.read_text(encoding="utf-8"))["pass"] is True
        assert not plain.read_text(encoding="utf-8").startswith("{")

    def test_console_entry_point(self, tmp_path):
        proc = _run_in_child(_uhl_config(tmp_path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_missing_config_is_error(self, tmp_path):
        code = cli.main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1


class TestOvmLoading:
    def test_inline_json(self):
        nu = lebesgue_identity(4, 2)
        report, code = cli.run_scenario({
            "kind": "attain",
            "ovm": ovm.ovm_to_json(nu),
            "target": {"total_fraction": 0.25},
        })
        assert code == 0

    def test_path_loading(self, tmp_path):
        nu = lebesgue_identity(4)
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(ovm.ovm_to_json(nu)), encoding="utf-8")
        report, code = cli.run_scenario({
            "kind": "attain",
            "ovm": str(path),
            "target": {"total_fraction": 0.5},
        })
        assert code == 0

    def test_explicit_matrix_target(self):
        report, code = cli.run_scenario({
            "kind": "attain",
            "ovm": {"model": "lebesgue_identity", "dim": 2, "cells": 8},
            "target": {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]],
                       "im": [[0.0, 0.0], [0.0, 0.0]]},
        })
        assert code == 0

    def test_unknown_model(self):
        report, code = cli.run_scenario({
            "kind": "attain", "ovm": {"model": "nope"},
            "target": {"total_fraction": 0.5}})
        assert code == 1


SMALL_OVM = {"model": "lebesgue_identity", "dim": 2, "cells": 4}
POVM = {"model": "random_povm", "dim": 2, "cells": 8}
NO_DIM = {k: v for k, v in ovm.ovm_to_json(lebesgue_identity(4, 2)).items() if k != "dim"}
TWO_CELLS = ovm.ovm_to_json(lebesgue_identity(2, 1, 0.0, 2.0))


class TestMalformedInput:
    @pytest.mark.parametrize("scenario", [
        {"kind": "singular_34", "measures": 4, "lambdas": 5},
        {"kind": "convexity", "ovm": POVM, "trials": 2, "expect": 3},
        {"kind": "properties", "ovm": SMALL_OVM, "expect": [1, 2]},
        {"kind": "properties", "ovm": SMALL_OVM, "sets": 5},
        {"kind": "classical", "measures": 2, "cells": 8, "targets": 5},
        {"kind": "classical", "measures": 0},
        {"kind": "attain", "ovm": {"model": "random_povm", "dim": 0},
         "target": {"total_fraction": 0.5}},
        {"kind": "attain", "ovm": NO_DIM, "target": {"total_fraction": 0.5}},
        {"kind": "convexity", "ovm": POVM, "trials": 2.7},
        {"kind": "convexity", "ovm": POVM, "trials": -3},
        {"kind": "uhl", "cells": 4, "format": "xml"},
        {"kind": "classical", "measures": "abc"},
        {"kind": "attain", "ovm": SMALL_OVM, "target": {"total_fraction": 0.5}, "seed": 3},
        {"kind": "properties", "ovm": {"model": "single_atom", "mass": 1.34e154}},
        {"kind": "properties", "ovm": SMALL_OVM, "expect": {"bounded": True}},
        {"kind": "properties",
         "ovm": dict(TWO_CELLS, space={"a": True, "b": 2, "breakpoints": [True, 1.5, 2]})},
        {"kind": "properties",
         "ovm": dict(TWO_CELLS, space={"a": 0, "b": 2, "breakpoints": [0, float("nan"), 2]})},
        {"kind": "attain", "ovm": SMALL_OVM,
         "target": {"dim": 2, "re": [["0.5", 0.0], [0.0, " 0.5 "]], "im": [[0, 0], [0, 0]]}},
        {"kind": "attain", "ovm": dict(TWO_CELLS, cell_masses=[
            {"dim": 1, "re": [[entry]], "im": [[0.0]]} for entry in ("0.5", True)]),
         "target": {"total_fraction": 0.5}},
    ], ids=["lambdas_scalar", "convexity_expect_scalar", "properties_expect_list",
            "sets_scalar", "targets_scalar", "measures_zero", "povm_dim_zero",
            "inline_ovm_without_dim", "trials_float", "trials_negative",
            "format_xml", "measures_text", "attain_seed", "properties_overflow",
            "properties_expect_unknown_flag", "space_bool_coordinates", "space_nan_breakpoint",
            "target_string_entries", "cell_mass_string_and_bool_entries"])
    def test_exit_one_invalid_input(self, scenario):
        report, code = cli.run_scenario(scenario)
        assert code == 1
        assert report["error"].startswith("InvalidInput: ")

    def test_target_beyond_float_range(self, tmp_path):
        # An integer past the float range is an InvalidInput like any other
        # bad entry: an exit-1 report, no raw OverflowError.
        config, out = tmp_path / "s.json", tmp_path / "r.json"
        target = {"dim": 2, "re": [[10**400, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}
        config.write_text(json.dumps({"kind": "attain", "ovm": SMALL_OVM, "target": target}),
                          encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        text = out.read_text(encoding="utf-8")
        assert json.loads(text)["error"] == "InvalidInput: matrix JSON entry out of the float range"
        assert "OverflowError" not in text

    def test_item_counts_swapped_between_cells_and_atoms(self):
        # Two cells, no atoms: one cell mass and one atom mass total two
        # items but put the second one in the wrong place.
        swapped = dict(TWO_CELLS, variant="mixed", cell_masses=TWO_CELLS["cell_masses"][:1],
                       atom_masses=TWO_CELLS["cell_masses"][1:])
        report, code = cli.run_scenario({"kind": "properties", "ovm": swapped})
        assert code == 1
        assert report["error"].startswith("ShapeMismatch: ")

    def test_properties_seed_flag_reaches_scenario(self, tmp_path):
        config = tmp_path / "props.json"
        config.write_text(json.dumps({"ovm": POVM}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert cli.main(["properties", "--config", str(config), "--seed", "5",
                         "--out", str(out)]) == 0
        report, _ = cli.run_scenario({"kind": "properties", "ovm": POVM, "seed": 5})
        assert json.loads(out.read_text(encoding="utf-8"))["scenario"]["seed"] == 5
        assert out.read_text(encoding="utf-8") == cli.report_to_json(report)

    def test_malformed_out_reports_to_stdout(self, tmp_path, capsys):
        config = tmp_path / "s.json"
        config.write_text(json.dumps({"kind": "uhl", "cells": 4, "out": 5}), encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "out must be a string" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unwritable_out_is_error(self, tmp_path, capsys, where):
        # An --out that names a directory, or a path under a file, ends in
        # an error line and exit 1, with no raw OSError and no temp file left.
        (tmp_path / "file").write_text("x", encoding="utf-8")
        out = tmp_path / "dir" if where == "directory" else tmp_path / "file" / "r.json"
        (tmp_path / "dir").mkdir()
        assert cli.main(["uhl", "--cells", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]


def _deep_json(tmp_path) -> Path:
    """A JSON file nested too deeply for json.load's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return path


class TestDeepJson:
    @pytest.mark.parametrize("command", ["run", "uhl"])
    def test_main_config(self, tmp_path, capsys, command):
        path = _deep_json(tmp_path)
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: JSON in {path} is nested too deeply\n"

    @pytest.mark.parametrize("scenario", [
        lambda path: str(path),
        lambda path: {"kind": "properties", "ovm": str(path)},
    ], ids=["config", "ovm_spec"])
    def test_run_scenario(self, tmp_path, scenario):
        path = _deep_json(tmp_path)
        report, code = cli.run_scenario(scenario(path))
        assert code == 1
        assert report["error"] == f"InvalidInput: JSON in {path} is nested too deeply"


def _nest(depth: int, leaf=1):
    """``leaf`` inside ``depth`` lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


class TestDeepScenario:
    # A scenario is echoed in its report, whose encoder recurses once per
    # level: a value nested 900 deep would end in a raw RecursionError
    # after the scenario ran, so it is rejected before.
    @pytest.mark.parametrize("scenario", [
        {"kind": "properties", "ovm": {"model": "uhl", "cells": 4, "colour": _nest(900)}},
        {"kind": "properties", "ovm": {"model": "uhl", "cells": 4},
         "expect": {"positive": _nest(900)}},
        {"kind": "attain", "ovm": SMALL_OVM, "target": {"total_fraction": 0.5,
                                                         "note": _nest(900, {})}},
    ], ids=["model_key", "expect_value", "target_key"])
    def test_main_writes_an_error_report(self, tmp_path, scenario):
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        config.write_text(json.dumps(scenario), encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        error = json.loads(out.read_text(encoding="utf-8"))["error"]
        assert error == f"InvalidInput: scenario nested more than {cli.MAX_DEPTH} deep"

    def test_depth_limit_is_exact(self):
        # The scenario object is level 1, ``expect`` level 2, its lists the rest.
        for depth, code in ((cli.MAX_DEPTH, 0), (cli.MAX_DEPTH + 1, 1)):
            scenario = {"kind": "properties", "ovm": {"model": "uhl", "cells": 4},
                        "expect": {"positive": _nest(depth - 3, [])}}
            report, got = cli.run_scenario(scenario)
            assert got == code
            assert json.loads(cli.report_to_json(report)).get("scenario") == (
                scenario if code == 0 else None)

    def test_nesting_depth_counts_empty_containers(self):
        assert not cli._nested_deeper(1, 0)
        assert cli._nested_deeper([], 0) and not cli._nested_deeper([], 1)
        assert cli._nested_deeper({"a": ({"b": [1, {}]},)}, 4)
        assert not cli._nested_deeper({"a": ({"b": [1, {}]},)}, 5)


class TestUnknownModelKey:
    @pytest.mark.parametrize("spec", [
        {"model": "uhl", "cells": 4, "colour": "red"},
        {"model": "random_povm", "dim": 2, "cells": 8, "mass": 1.0},
    ], ids=["uhl_colour", "random_povm_mass"])
    def test_exit_one_report(self, tmp_path, spec):
        config, out = tmp_path / "c.json", tmp_path / "r.json"
        config.write_text(json.dumps({"kind": "properties", "ovm": spec}), encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        bad = next(key for key in spec if key not in cli._MODELS[spec["model"]][0]
                   and key != "model")
        assert json.loads(out.read_text(encoding="utf-8"))["error"] == (
            f"InvalidInput: unknown key {bad!r} for model {spec['model']!r}")


def test_csv_of_failed_operation_gives_its_error():
    report, code = cli.run_scenario(dict(LEBESGUE_SCENARIO, target={"total_fraction": 2.0}))
    assert code == 2
    assert cli.report_to_csv(report).startswith("error\nTargetNotInHull: ")


# Scenario fuzzing.  Sizes stay small (every model and runner stays cheap
# and allocates little: the key checks set no upper bounds) and seeds
# within [-3, 64].
_SIZES = st.integers(-3, 6)
_NUMBERS = _SIZES | st.floats()
_LEAVES = (st.none() | st.booleans() | _NUMBERS | st.text(max_size=3)
           | st.sampled_from(["json", "csv", "xml", *cli._MODELS]))
_NESTED_KEYS = ["model", "dim", "cells", "seed", "mass", "site", "total_fraction",
                "re", "im", "failures", "positive", "spectral", "atoms", "space"]
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=8)
    | st.dictionaries(st.sampled_from(_NESTED_KEYS), inner, max_size=4),
    max_leaves=12)
_MODEL_SPECS = st.fixed_dictionaries(
    {"model": st.sampled_from(sorted(cli._MODELS))},
    optional={"dim": _SIZES, "cells": _SIZES, "seed": st.integers(-3, 64),
              "mass": _NUMBERS, "site": _NUMBERS})
_INLINE = ovm.ovm_to_json(lebesgue_identity(3, 2))
_INLINE_SPECS = (
    st.builds(lambda key, value: {**_INLINE, key: value}, st.sampled_from(sorted(_INLINE)), _JSON)
    | st.builds(lambda key, value: {**_INLINE, "space": {**_INLINE["space"], key: value}},
                st.sampled_from(sorted(_INLINE["space"])), _JSON))
_VALUES = {
    "out": st.just("report.json"),
    "format": st.sampled_from(["json", "csv"]),
    "tol": st.floats(0.0, 1.0),
    "ovm": _MODEL_SPECS | _INLINE_SPECS,
    "target": st.fixed_dictionaries({"total_fraction": _NUMBERS}),
    "seed": st.integers(-3, 64),
    "lambdas": st.lists(st.floats(0.0, 1.0), max_size=8),
    "targets": st.lists(st.lists(_NUMBERS, max_size=4), max_size=4),
    "measures": _SIZES | st.lists(_MODEL_SPECS, min_size=1, max_size=3),
    "sets": st.lists(st.fixed_dictionaries({}, optional={
        "cells": st.lists(_SIZES, max_size=8), "atoms": st.lists(_SIZES, max_size=2)}),
        max_size=4),
    "expect": st.dictionaries(
        st.sampled_from(["failures", "positive", "spectral", "probability", "other"]),
        _LEAVES, max_size=3),
}


@st.composite
def _scenarios(draw):
    kind = draw(st.sampled_from(sorted(cli.SCENARIOS)))
    keys = {**cli._COMMON, **cli.SCENARIOS[kind].keys}
    # Required keys always, and the sizes too: the defaults of uhl cells
    # and convexity trials cost most of a second a run.
    always = [name for name, key in keys.items()
              if key.required or name in ("cells", "trials")]
    optional = sorted(set(keys) - set(always))
    chosen = always + draw(st.lists(st.sampled_from(optional), unique=True))
    scenario = {key: draw(_VALUES.get(key, _SIZES)) for key in chosen}
    if chosen and draw(st.booleans()):  # one key takes any JSON value
        scenario[draw(st.sampled_from(chosen))] = draw(_JSON)
    return {"kind": kind, **scenario}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scenarios())
def test_run_scenario_fuzz(scenario):
    report, code = cli.run_scenario(scenario)
    assert code in (0, 1, 2)
    assert "schema" in report
    assert ("error" in report) == (code == 1)
