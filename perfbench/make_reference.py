"""Rewrite the committed reference outputs from one pass at the default seed.

    python3 perfbench/make_reference.py [workload ...]

Run only when a change to the program or to a workload is meant to change
the outputs; the diff of ``perfbench/reference`` then shows what changed.
"""
from __future__ import annotations

import os
import sys

from outputs import write_reference
from workloads import DEFAULT_SEED, THREAD_PINS, WORK, WORKLOADS, import_cli, run_pass, write_inputs


def main(names: list[str]) -> int:
    os.environ.update(THREAD_PINS)
    cli = import_cli()
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = WORK / name
        write_inputs(workload, DEFAULT_SEED, workdir)
        result = run_pass(cli, workload, workdir, workdir / "out")
        if any(result.failures):
            print(f"{name}: {result.failures}", file=sys.stderr)
            return 1
        write_reference(workload, workdir / "out")
        print(f"{name}: reference written ({result.wall_s:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
