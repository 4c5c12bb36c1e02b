"""Scenario runner: parse scenario JSON, dispatch to library operations,
emit deterministic reports.

Reports are key-sorted JSON; identical scenario inputs (seeds included)
produce byte-identical report files.  Wall-clock duration is therefore
logged to stderr, never serialized into the artifact.  Exit codes:
0 all checks pass, 2 some check failed, 1 malformed input or error.

Each scenario kind is declared once, in ``SCENARIOS``; the argument
parser, the key checks, the flag handling and the CSV writer read it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from . import __version__, demos, models, opcore
from .demos import check, failed
from .errors import AtomicObstruction, InvalidInput, OvmError, TargetNotInHull
from .lyapunov import attain, attain_to_json, convexity_certificate
from .ovm import MeasurableSet, check_ovm_properties, ovm_from_json, set_from_json

REPORT_SCHEMA = "ovm-report/2"
MAX_DEPTH = 100  # lists and objects a scenario may nest (see run_scenario)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _list_of(test) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(test, value))


class Type(NamedTuple):
    """What a key's JSON value must be, a test for it, and its conversion."""

    what: str
    accepts: Callable[[object], bool]
    convert: Callable = lambda value: value


_INT = Type("an integer", _is_int)
_NUMBER = Type("a finite number", _is_number, float)
_NUMBERS = Type("a list of numbers", _list_of(_is_number))
_NUMBER_LISTS = Type("a list of number lists", _list_of(_NUMBERS.accepts))
_OBJECT = Type("a JSON object", lambda value: isinstance(value, dict))
_OBJECTS = Type("a list of JSON objects", _list_of(_OBJECT.accepts))
_TEXT = Type("a string", lambda value: isinstance(value, str))
_FORMAT = Type("json or csv", lambda value: value in ("json", "csv"))
_OVM_SPEC = Type("an ovm spec: a JSON object or a file path",
                 lambda value: isinstance(value, (dict, str)))
_MEASURES = Type(
    "an integer >= 1 or a non-empty list of ovm specs",
    lambda value: (_is_int(value) and value >= 1)
    or (isinstance(value, list) and len(value) > 0 and _list_of(_OVM_SPEC.accepts)(value)))
_FAILURES = Type(
    "a JSON object whose failures is an integer",
    lambda value: isinstance(value, dict) and _is_int(value.get("failures", 0)))


@dataclass(frozen=True)
class Key:
    """A scenario or model key: its type, its value when absent, and the
    lower bound its runner needs (bounds the library checks stay there)."""

    type: Type
    default: object = None
    low: int | None = None
    required: bool = False

    def read(self, name, value):
        if not self.type.accepts(value):
            raise InvalidInput(f"{name} must be {self.type.what}")
        if self.low is not None and value < self.low:
            raise InvalidInput(f"{name} must be at least {self.low}")
        return self.type.convert(value)


def _read_keys(spec: dict, keys: dict[str, Key], tag: str) -> dict:
    """Each declared key's checked value from ``spec``, else its default; a
    key neither declared nor ``tag`` (naming the kind or model) is invalid."""
    for name in spec:
        if name != tag and name not in keys:
            raise InvalidInput(f"unknown key {name!r} for {tag} {spec[tag]!r}")
    out = {}
    for name, key in keys.items():
        if name in spec:
            out[name] = key.read(name, spec[name])
        elif key.required:
            raise InvalidInput(f"scenario needs {name}")
        else:
            out[name] = key.default
    return out


_SEED = Key(_INT, 0, low=0)

# Builder shorthands for an ovm spec {"model": name, parameter: value, ...}:
# the parameters, then the builder.
_MODELS = {
    "lebesgue_identity": (
        {"cells": Key(_INT, 16), "dim": Key(_INT, 1, low=1)},
        lambda p: models.lebesgue_identity(p["cells"], p["dim"])),
    "uhl": ({"cells": Key(_INT, 12)}, lambda p: models.uhl_model(p["cells"])),
    "random_povm": (
        {"dim": Key(_INT, 2, low=1), "cells": Key(_INT, 40), "seed": _SEED},
        lambda p: models.random_povm(p["dim"], p["cells"], models.rng_from_seed(p["seed"]))),
    "single_atom": (
        {"mass": Key(_NUMBER, 1.0), "site": Key(_NUMBER, 0.5)},
        lambda p: models.single_atom_measure(p["mass"], p["site"])),
}


def _read_json(path):
    """The JSON value in the file at ``path``; nesting too deep to parse is
    an InvalidInput, not a RecursionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidInput(f"JSON in {path} is nested too deeply") from None


def _load_ovm(spec):
    if isinstance(spec, str):
        spec = _read_json(spec)
    if not isinstance(spec, dict):
        raise InvalidInput("ovm spec must be a JSON object or a file path")
    if "model" not in spec:
        return ovm_from_json(spec)
    name = spec["model"]
    if not isinstance(name, str) or name not in _MODELS:
        raise InvalidInput(f"unknown ovm model {name!r}")
    keys, build = _MODELS[name]
    return build(_read_keys(spec, keys, "model"))


def _load_target(spec: dict, nu):
    if "total_fraction" in spec:
        return Key(_NUMBER).read("total_fraction", spec["total_fraction"]) * nu.total_mass()
    return opcore.matrix_from_json(spec)


def _free_dim(nu) -> int:
    return sum(c.dim * c.dim for c in nu.components or [nu])


def _run_attain(p):
    nu = _load_ovm(p["ovm"])
    target = _load_target(p["target"], nu)
    tol = p["tol"]
    bound = nu.space.n_cells + _free_dim(nu)
    try:
        result = attain(nu, target)
    except (TargetNotInHull, AtomicObstruction) as exc:
        return failed(exc)
    results = {"attain": attain_to_json(result), "target": opcore.matrix_to_json(target)}
    return results, [check("residual", result.residual <= tol, result.residual, tol),
                     check("interval_count", result.interval_count <= bound,
                           result.interval_count, bound)]


def _run_convexity(p):
    nu = _load_ovm(p["ovm"])
    tol = p["tol"]
    expected_failures = (p["expect"] or {}).get("failures", 0)
    bound = nu.space.n_cells + _free_dim(nu)
    results = asdict(convexity_certificate(nu, p["trials"], p["seed"]))
    failures = len(results["failures"])
    checks = [check("failures", failures == expected_failures, failures, expected_failures)]
    if expected_failures == 0:
        checks.append(check("max_residual", results["max_residual"] <= tol,
                            results["max_residual"], tol))
        checks.append(check("max_interval_count", results["max_interval_count"] <= bound,
                            results["max_interval_count"], bound))
    return results, checks


def _run_classical(p):
    measures = p["measures"]
    if isinstance(measures, list):
        measures = [_load_ovm(spec) for spec in measures]
    return demos.classical_demo(measures, p["cells"], p["trials"], p["seed"],
                                p["targets"], p["tol"])


def _run_properties(p):
    nu = _load_ovm(p["ovm"])
    if p["sets"] is not None:
        sample_sets = [set_from_json(nu.space, obj) for obj in p["sets"]]
    else:
        sample_sets = [MeasurableSet.empty(nu.space), MeasurableSet.full(nu.space)]
        sample_sets += [MeasurableSet.from_indices(nu.space, cells=[k])
                        for k in range(min(nu.space.n_cells, 16))]
        rng = models.rng_from_seed(p["seed"])
        sample_sets += [MeasurableSet(rng.integers(0, 2, nu.space.n_cells) == 1,
                                      rng.integers(0, 2, nu.space.n_atoms) == 1) for _ in range(8)]
    flags = asdict(check_ovm_properties(nu, sample_sets))
    expect = p["expect"] or {}
    if unknown := sorted(set(expect) - flags.keys()):
        raise InvalidInput(f"expect names unknown flags {unknown}; the flags are {sorted(flags)}")
    results = {"properties": flags, "sets_tested": len(sample_sets)}
    if expect:
        checks = [check(f"flag_{name}", flags[name] == bool(val), flags[name], bool(val))
                  for name, val in sorted(expect.items())]
    else:
        checks = [check("computed", True, True)]
    return results, checks


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _interval_rows(results):
    return results["attain"]["intervals"]


def _classical_rows(results):
    def joined(values):
        return ";".join(_fmt(v) for v in values)

    return [(joined(row["target"]), "", "", "") if "error" in row else
            (joined(row["target"]), joined(row["achieved"]), row["residual"],
             row["fractional_count"]) for row in results["targets"]]


def _comma_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


class Flag(NamedTuple):
    """A subcommand flag; without a default it takes its key's."""

    name: str
    type: Callable
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


@dataclass(frozen=True)
class Kind:
    """One scenario kind: its keys (besides ``kind`` and ``_COMMON``), its
    subcommand's flags (each fills the key of its own name, unless ``fill``
    maps the parsed flags to keys), its runner (all keys, defaults filled
    in, to results and checks) and its CSV header and rows."""

    help: str
    keys: dict[str, Key]
    flags: tuple[Flag, ...]
    run: Callable[[dict], tuple[dict, list]]
    csv_header: str
    csv_rows: Callable[[dict], list]
    fill: Callable | None = None

    def flag_keys(self, args) -> dict:
        if self.fill is not None:
            return self.fill(args)
        return {f.dest: getattr(args, f.dest) for f in self.flags}


_COMMON = {"out": Key(_TEXT), "format": Key(_FORMAT, "json"), "tol": Key(_NUMBER, 1e-9)}
_OVM = Key(_OVM_SPEC, required=True)

SCENARIOS = {
    "attain": Kind(
        "realize a target operator",
        {"ovm": _OVM, "target": Key(_OBJECT, required=True)},
        (Flag("--dim", int, 2), Flag("--cells", int, 16),
         Flag("--target-fraction", float, 0.5, "target = fraction * nu(X)")),
        _run_attain, "interval_lo,interval_hi", _interval_rows,
        fill=lambda a: {"ovm": {"model": "lebesgue_identity", "dim": a.dim, "cells": a.cells},
                        "target": {"total_fraction": a.target_fraction}}),
    "convexity": Kind(
        "seeded convexity certificate",
        {"ovm": _OVM, "trials": Key(_INT, 100, low=0), "seed": _SEED,
         "expect": Key(_FAILURES)},
        (Flag("--dim", int, 2), Flag("--cells", int, 40), Flag("--trials", int),
         Flag("--seed", int)),
        _run_convexity, "trials,failures,max_residual,max_interval_count",
        lambda r: [(r["trials"], len(r["failures"]), r["max_residual"],
                    r["max_interval_count"])],
        fill=lambda a: {"ovm": {"model": "random_povm", "dim": a.dim, "cells": a.cells,
                                "seed": a.seed},
                        "trials": a.trials, "seed": a.seed}),
    "paper_example_13": Kind(
        "harmonic diagonal model reproduction",
        {"levels": Key(_INT, 8)},
        (Flag("--levels", int),),
        lambda p: demos.paper_example_13(p["levels"]),
        "n,cell_lo,cell_hi,density,expected_density,rn_entry_00,rn_entry_nn,"
        "expected_rn_entry",
        lambda r: [(row["n"], *row["cell"], row["density"], row["expected_density"],
                    row["rn_entry_00"], row["rn_entry_nn"], row["expected_rn_entry"])
                   for row in r["cells"]]),
    "uhl": Kind(
        "indicator-valued counterexample model",
        {"cells": Key(_INT, 12)},
        (Flag("--cells", int),),
        lambda p: demos.uhl_demo(p["cells"]),
        "cells,supports_tested,kernel_witnesses_found,min_distance",
        lambda r: [(r["cells"], r["supports_tested"], r["kernel_witnesses_found"],
                    r["min_distance_to_half_total"])]),
    "singular_34": Kind(
        "joint attainment on singular measures",
        {"measures": Key(_INT, 4), "lambdas": Key(_NUMBERS, required=True),
         "cells": Key(_INT, 4), "tol": Key(_NUMBER, 1e-10)},
        (Flag("--measures", int),
         Flag("--lambdas", _comma_floats, "0.1,0.5,0.9,0.3",
              "comma-separated targets in [0, 1]"),
         Flag("--cells", int, help="cells per block")),
        lambda p: demos.singular_demo(p["measures"], p["lambdas"], p["cells"], p["tol"]),
        "interval_lo,interval_hi", _interval_rows),
    "classical": Kind(
        "classical Lyapunov attainment",
        {"measures": Key(_MEASURES, 3), "cells": Key(_INT, 64),
         "trials": Key(_INT, 1, low=0), "seed": _SEED, "targets": Key(_NUMBER_LISTS)},
        (Flag("--measures", int), Flag("--cells", int), Flag("--trials", int),
         Flag("--seed", int)),
        _run_classical, "target,achieved,residual,fractional_count", _classical_rows),
    "properties": Kind(
        "axiom checks on an OVM",
        {"ovm": _OVM, "sets": Key(_OBJECTS), "seed": _SEED, "expect": Key(_OBJECT)},
        (Flag("--seed", int),),
        _run_properties, "flag,value",
        lambda r: sorted(r["properties"].items())),
}


def validate_scenario(sc) -> dict:
    """Type- and range-check every key of a scenario before it runs;
    returns all of its kind's keys, defaults filled in."""
    if not isinstance(sc, dict):
        raise InvalidInput("scenario must be a JSON object")
    name = sc.get("kind")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise InvalidInput(f"unknown scenario kind {name!r}")
    return {"kind": name, **_read_keys(sc, {**_COMMON, **SCENARIOS[name].keys}, "kind")}


def _nested_deeper(value, depth: int) -> bool:
    """Do lists, tuples and dicts nest more than ``depth`` deep in
    ``value``?  Walked level by level, without recursion."""
    nested = (list, tuple, dict)
    level = [value] if isinstance(value, nested) else []
    while level and depth:
        level = [x for c in level for x in (c.values() if isinstance(c, dict) else c)
                 if isinstance(x, nested)]
        depth -= 1
    return bool(level)


def run_scenario(scenario) -> tuple[dict, int]:
    """Run one scenario (dict or config file path); returns (report, code).
    One nested more than MAX_DEPTH deep is rejected before it runs: the
    report echoes it, and the encoder takes two stack frames per level."""
    try:
        if isinstance(scenario, (str, os.PathLike)):
            scenario = _read_json(scenario)
        if _nested_deeper(scenario, MAX_DEPTH):
            raise InvalidInput(f"scenario nested more than {MAX_DEPTH} deep")
        params = validate_scenario(scenario)
        results, checks = SCENARIOS[params["kind"]].run(params)
    except (OvmError, ValueError, OverflowError, OSError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"schema": REPORT_SCHEMA, "version": __version__, "error": error}, 1
    passed = all(c["passed"] for c in checks)
    report = {"schema": REPORT_SCHEMA, "version": __version__, "scenario": dict(scenario),
              "results": results, "checks": checks, "pass": passed}
    return report, 0 if passed else 2


def report_to_json(report: dict) -> str:
    """Canonical serialization: key-sorted, locale-independent.  The text is
    exactly ``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True)
    + "\\n"``, errors included (save for a container that holds itself),
    written by :func:`_encode` rather than by json's pure-Python indenting
    encoder."""
    return _encode(report, "\n") + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    return "Infinity" if x == math.inf else "-Infinity" if x == -math.inf else float.__repr__(x)


def _key(key) -> str:
    """A non-string dict key as json.dumps converts it, before it is escaped."""
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(value, newline: str) -> str:
    """``value`` as json.dumps(..., sort_keys=True, indent=2,
    ensure_ascii=True) writes it at the line start ``newline`` ("\\n" and the
    indent): the same type tests in the same order, float and int
    subclasses by float.__repr__ and int.__repr__.  A list of finite floats
    is joined in one call."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = None
        if isinstance(value[0], float):
            try:
                body = ("," + inner).join(map(float.__repr__, value))
            except TypeError:  # an item that is not a float
                pass
        if body is None or "n" in body:  # or a nan or inf among them
            body = ("," + inner).join([_encode(x, inner) for x in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_ESCAPE(k if isinstance(k, str) else _key(k)) + ": " + _encode(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def report_to_csv(report: dict) -> str:
    """Flat point-cloud view of the kind-specific results; a report whose
    scenario or operation failed gives its error."""
    error = report["error"] if "error" in report else report["results"].get("error")
    if error is not None:
        return "error\n" + error.replace("\n", " ") + "\n"
    kind = SCENARIOS[report["scenario"]["kind"]]
    lines = [kind.csv_header]
    lines += [",".join(_fmt(v) for v in row) for row in kind.csv_rows(report["results"])]
    return "\n".join(lines) + "\n"


def write_report(text: str, out_path: str | None):
    """Atomic write (temp + rename); stdout when no path is given."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_common(parser):
    parser.add_argument("--config", help="scenario JSON file; flags override its keys")
    parser.add_argument("--out", help="report output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"))
    parser.add_argument("--tol", type=float, help="primary residual tolerance override")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ovmkit`` argument parser, built on the first call and then
    shared by the whole process: callers parse with it and must not
    mutate it.  Every flag default is an int, float or string (argparse
    converts a string default afresh on each parse) and each parse returns
    a new Namespace, so the shared parser parses as a fresh one would."""
    parser = argparse.ArgumentParser(
        prog="ovmkit",
        description="Operator-valued measure scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config as-is")
    run.add_argument("--config", required=True)
    run.add_argument("--out")
    run.add_argument("--format", choices=("json", "csv"))

    for name, kind in SCENARIOS.items():
        p = sub.add_parser(name.replace("_", "-"), help=kind.help)
        _add_common(p)
        for flag in kind.flags:
            default = kind.keys[flag.dest].default if flag.default is None else flag.default
            p.add_argument(flag.name, type=flag.type, default=default, help=flag.help)
    return parser


def _scenario_from_args(args) -> dict:
    scenario = _read_json(args.config) if args.config else {}
    if not isinstance(scenario, dict):
        raise InvalidInput("scenario config must be a JSON object")
    if args.command == "run":
        return scenario
    name = args.command.replace("-", "_")
    scenario.setdefault("kind", name)
    if args.tol is not None:
        scenario["tol"] = args.tol
    for key, value in SCENARIOS[name].flag_keys(args).items():
        scenario.setdefault(key, value)
    return scenario


def _setting(scenario, name):
    """A scenario's own ``out`` or ``format`` when it is well formed."""
    value = scenario.get(name) if isinstance(scenario, dict) else None
    return value if _COMMON[name].type.accepts(value) else None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        scenario = _scenario_from_args(args)
    except (OvmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_path = args.out or _setting(scenario, "out") or None
    fmt = args.format or _setting(scenario, "format")
    report, code = run_scenario(scenario)
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    try:
        write_report(text, out_path)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    status = {0: "pass", 1: "error", 2: "check-failure"}[code]
    print(f"# {status} in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    if code == 1 and "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
