"""Print the exit code and the SHA-256 of the JSON and CSV report of a fixed
set of scenarios, one line each, so that two commits can be compared with
``diff``.

    python3 tools/report_digests.py                  # this checkout
    python3 tools/report_digests.py --repo OTHER     # another checkout
    python3 tools/report_digests.py --drop schema --drop results.properties.bounded
    python3 tools/report_digests.py --drop results.max_residual --drop checks.1.value

The scenarios are those of the benchmark's ``scenarios`` workload
(``perfbench/workloads.scenario_configs``) at seeds 1 and 101, plus every
subcommand at its default flags.  Both are built and run with the
``src/`` and ``perfbench/`` of the checkout given by ``--repo``.  Each
``--drop`` removes a dotted key path (numeric segments index lists) from
every report that has it before both views are hashed, so that reports
which differ only there (a schema bump, a removed field, a round-off
difference) hash the same.  A key the CSV view cannot be rendered without
is kept there as null.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 101)


def scenarios(cli, workloads, inputs):
    """(name, scenario) pairs in a fixed order."""
    for seed in SEEDS:
        per_cycle, capped = workloads.scenario_configs(inputs.Inputs(seed, "scenarios"))
        for name, config, _ in per_cycle + [capped]:
            yield f"seed{seed}/{name}", config
    parser = cli.build_parser()
    for name in cli.SCENARIOS:
        args = parser.parse_args([name.replace("_", "-")])
        yield f"default/{name}", cli._scenario_from_args(args)


def drop(report: dict, path: str, blank: bool = False):
    """Remove a dotted key path, or with ``blank`` set its value to None; a
    numeric segment indexes a list (``checks.1.value``)."""
    *parents, last = path.split(".")
    node = report
    for key in parents:
        if isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        elif isinstance(node, dict):
            node = node.get(key)
        else:
            return
    if not isinstance(node, dict) or last not in node:
        return
    if blank:
        node[last] = None
    else:
        del node[last]


def views(cli, report: dict, paths) -> tuple[str, str]:
    """JSON and CSV text of a report with the dotted key ``paths`` dropped."""
    dropped = copy.deepcopy(report)
    for path in paths:
        drop(dropped, path)
    try:
        csv = cli.report_to_csv(dropped)
    except KeyError:
        blanked = copy.deepcopy(report)
        for path in paths:
            drop(blanked, path, blank=True)
        csv = cli.report_to_csv(blanked)
    return cli.report_to_json(dropped), csv


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to use (default: this one)")
    parser.add_argument("--drop", action="append", default=[], metavar="KEY.PATH",
                        help="report key to remove before hashing; repeatable")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.repo / "src"), str(args.repo / "perfbench")]
    from ovmkit import cli
    import inputs
    import workloads

    for name, scenario in scenarios(cli, workloads, inputs):
        report, code = cli.run_scenario(scenario)
        json_text, csv_text = views(cli, report, args.drop)
        print(f"{name} exit={code} json={digest(json_text)} csv={digest(csv_text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
