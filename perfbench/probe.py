"""Fresh-interpreter probes, started by run.py with the program on PYTHONPATH.

    python3 perfbench/probe.py setup <workload> <workdir>
        import convergence_lab.cli and load the workload's configs; the
        parent times the whole child process.
    python3 perfbench/probe.py pass <workload> <workdir> <out dir> <trace 0|1>
        run one pass into <out dir> and print as JSON its wall and CPU
        time, peak resident memory, step failures and output digests; with
        trace 1 also the spans' self times and work counts, and write the
        spans to <workdir>/spans.json.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from workloads import WORKLOADS, import_cli, run_pass


def main(mode: str, name: str, workdir: str, out: str = "", trace: str = "0") -> None:
    workload = WORKLOADS[name]
    cli = import_cli()
    if mode == "setup":
        for fname in workload.configs:
            cli.load_config(Path(workdir) / fname)
        return
    from outputs import digest
    from tracer import Tracer

    tracer = Tracer()
    if trace == "1":
        with tracer:
            result = run_pass(cli, workload, Path(workdir), Path(out))
        (Path(workdir) / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        result = run_pass(cli, workload, Path(workdir), Path(out))
    print(
        json.dumps(
            {
                "wall_s": result.wall_s,
                "cpu_s": result.cpu_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "failures": result.failures,
                "digests": [digest(Path(out) / d) for d in workload.step_dirs()],
                "self_times": tracer.self_times(),
                "counts": tracer.counts,
            }
        )
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
