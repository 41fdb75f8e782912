"""Write oracle.json: the exit code, output digest, point count and failing
checks of every benchmark invocation, as the checked-out code produces them.

    python3 perfbench/record_oracle.py

Each invocation runs twice and must give the same record both times.  Run it
only on a commit whose output is known good; the benchmark treats these
records as the byte-identity contract of the CLI.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, cli_argv, digest_and_points, spawn

TINY = ("generate", "--group", "h2", "--n", "2")


def record(args: tuple[str, ...]) -> dict:
    run = spawn(cli_argv(args))
    digest, points, failing = digest_and_points(args, run["out"])
    entry = {"exit": run["rc"], "sha256": digest, "points": points}
    if failing:
        entry["failing"] = failing
    return entry


def main() -> int:
    invocations = [TINY] + [a for w in WORKLOADS.values() for a in w]
    oracle = {}
    for args in invocations:
        first, second = record(args), record(args)
        if first != second:
            sys.stderr.write(f"error: {' '.join(args)} is not reproducible\n")
            return 1
        oracle[" ".join(args)] = first
    with open(HERE / "oracle.json", "w") as fh:
        json.dump(oracle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
