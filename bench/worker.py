"""One benchmark process: set up, then run op cycles for a time window.

Started by ``run.py`` as a fresh interpreter, so its set-up time (importing
``postcal.cli`` plus one untimed warm-up command) and its peak RSS belong to
this run.  It drives the real CLI in-process through ``postcal.cli.main``,
one command at a time, makes the cheap per-op checks of ``checks.py``, keeps
the first output of each command for the content checks ``run.py`` makes,
and writes its measurements as JSON to the ``--result`` path.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import clear_outputs, inspect_op
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]


class OpRunner:
    """Runs CLI commands one at a time and tallies their outcomes."""

    def __init__(self, cli, out: Path, keep: Path):
        self.cli = cli
        self.out = out
        self.keep = keep
        self.hashes: dict[str, str] = {}
        self.ops: dict[str, list[int]] = {}  # command -> [ops, failed ops]
        self.failures: list[str] = []
        self.end = 0.0

    def run(self, argv) -> float | None:
        """Run and check one op; its wall time, or None when it failed."""
        command = argv[0]
        clear_outputs(command, self.out)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            # the op boundary keeps the run going and records the failure
            traceback.print_exc()
            code = None
        self.end = time.perf_counter()
        if code != 0:
            problem = f"{command}: exit code {code}"
        else:
            problem = inspect_op(command, self.out, self.keep, self.hashes)
        tally = self.ops.setdefault(command, [0, 0])
        tally[0] += 1
        if problem:
            tally[1] += 1
            self.failures.append(problem)
            return None
        return self.end - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--t0", type=float, required=True, help="perf_counter at spawn")
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--keep", required=True, help="directory for the first outputs")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import postcal.cli as cli

    spec = json.loads(Path(args.spec).read_text())
    out = Path(args.out)
    commands = [[a.format(out=out) for a in c] for c in spec["commands"]]
    runner = OpRunner(cli, out, Path(args.keep))

    runner.run(commands[0])
    setup_s = runner.end - args.t0

    # A traced run alternates untraced and traced cycles, so the difference
    # between the two is the tracing overhead.
    tracer = Tracer() if args.trace else None
    cycles = []
    start = time.perf_counter()
    min_cycles = 2 if tracer else 1
    while len(cycles) < min_cycles or time.perf_counter() - start < args.window:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.op = len(cycles)
            tracer.install()
        times = {argv[0]: runner.run(argv) for argv in commands}
        if traced:
            tracer.uninstall()
        cycle = {"traced": traced, "commands": times}
        if None not in times.values():
            cycle["cycle_s"] = sum(times.values())
        if traced:
            cycle["layers"] = layer_metrics([s for s in tracer.spans if s["op"] == tracer.op])
        cycles.append(cycle)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles": cycles,
        "ops": runner.ops,
        "failures": runner.failures,
        "hashes": runner.hashes,
        "spans": tracer.spans if tracer else [],
        "missing_hooks": tracer.missing if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
