"""Print the exit code and the SHA-256 of the JSON and CSV report of a fixed
set of scenarios, one line each, so that two commits can be compared with
``diff``.

    python3 tools/report_digests.py                  # this checkout
    python3 tools/report_digests.py --repo OTHER     # another checkout
    python3 tools/report_digests.py --drop schema --drop results.properties.bounded

The scenarios are those of the benchmark's ``scenarios`` workload
(``perfbench/workloads.scenario_configs``) at seeds 1 and 101, plus every
subcommand at its default flags.  Both are built and run with the
``src/`` and ``perfbench/`` of the checkout given by ``--repo``.  Each
``--drop`` removes a dotted key path from every report that has it
before both views are hashed, so that reports which differ only there
(a schema bump, a removed field) hash the same.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
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


def drop(report: dict, path: str):
    *parents, last = path.split(".")
    for key in parents:
        report = report.get(key)
        if not isinstance(report, dict):
            return
    report.pop(last, None)


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
        for path in args.drop:
            drop(report, path)
        print(f"{name} exit={code} json={digest(cli.report_to_json(report))} "
              f"csv={digest(cli.report_to_csv(report))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
