"""postcal benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload demo-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The seed generates the workload's
inputs; three fresh worker processes then each set up (import plus one
untimed warm-up command) and run op cycles through ``postcal.cli.main`` for
a third of ``--seconds``.  Every op's outputs are checked: cheaply in the
worker, and by content here once the workers have ended.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import OutputChecker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/postcal/cli.py", "configs/demo/config.yaml", "configs/simulate_default.yaml")

PROCESSES = 3
# A run must end within 3 * --seconds plus this margin, set-up included.
DEADLINE_MARGIN_S = 110.0

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MiB"}
COMMAND_METRICS = {
    "fit": "fit_s",
    "infer": "infer_s",
    "calibrate": "calibrate_s",
    "diagnose": "diagnose_s",
    "simulate": "simulate_s",
}


def layer_unit(name: str) -> str:
    if name == "io.records_per_s":
        return "records/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "hb.chain_iters" or name.startswith("report.cells_"):
        return "count"
    return "ratio"


def environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_worker(work: Path, k: int, window: float, trace: int, deadline: float) -> dict:
    out = work / f"worker{k}"
    out.mkdir()
    (work / f"keep{k}").mkdir()
    result = work / f"worker{k}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(work / "spec.json"),
           "--window", repr(window), "--trace", str(trace), "--out", str(out),
           "--keep", str(work / f"keep{k}"), "--result", str(result), "--t0"]
    t0 = time.perf_counter()
    # the worker's stdout goes to stderr so that stdout ends with the result
    proc = subprocess.Popen(cmd + [repr(t0)], stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker {k} did not finish before the deadline") from None
    if code != 0 or not result.is_file():
        raise RuntimeError(f"worker {k} exited with code {code}")
    return json.loads(result.read_text())


def check_contents(spec: dict, work: Path, results: list[dict]):
    """Content-check each worker's kept outputs; (failures, attempted, failed).

    Every clean op of a command (exit 0, files written, bytes equal to the
    first op's) shares the kept output, so a failed content check fails them
    all.  A ``simulate`` op counts as one op per requested replication, and
    a non-converged replication as a failed one.
    """
    checker = OutputChecker(spec)
    failures, attempted, failed = [], 0, 0
    for k, r in enumerate(results):
        kept = work / f"keep{k}"
        for command, (ops, bad) in r["ops"].items():
            clean = ops - bad
            problems = []
            if clean:
                try:
                    problems = checker.check(command, kept)
                except Exception as exc:  # malformed output fails the check
                    problems = [f"{command}: check raised {exc!r}"]
            failures.extend(problems)
            per_op = spec["replications"] if command == "simulate" else 1
            if problems:
                lost = clean * per_op
            elif command == "simulate" and clean:
                lost = clean * checker.excluded(kept)
            else:
                lost = 0
            attempted += ops * per_op
            failed += bad * per_op + lost
    return failures, attempted, failed


def _median(values):
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def summarise(spec: dict, results: list[dict], checked, trace: int):
    """Metrics (value, unit, samples) plus failure messages for one run."""
    content_failures, attempted, failed = checked
    failures = [f for r in results for f in r["failures"]] + content_failures
    for name in {n for r in results for n in r["hashes"]}:
        if len({r["hashes"].get(name) for r in results}) > 1:
            failures.append(f"{name} differs between processes with the same seed")
    cycles = [c for r in results for c in r["cycles"]]
    plain = [c for c in cycles if not c["traced"]]
    traced = [c for c in cycles if c["traced"]]
    cycle_s = [c["cycle_s"] for c in plain if "cycle_s" in c]
    if not cycle_s:
        failures.append("no op cycle completed")

    metrics = {
        "setup_s": _median([r["setup_s"] for r in results]),
        "cycle_s": _median(cycle_s),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
    }
    units = dict(END_TO_END)
    for command, name in COMMAND_METRICS.items():
        metrics[name] = _median(
            [c["commands"][command] for c in plain if c["commands"].get(command) is not None]
        )
        units[name] = "s"
    simulate_s, n = metrics["simulate_s"]
    metrics["sim_rep_per_s"] = (spec.get("replications", 0) / simulate_s if simulate_s else 0.0, n)
    units["sim_rep_per_s"] = "replications/s"
    metrics["failed_ops_frac"] = (failed / attempted if attempted else 1.0, attempted)
    units["failed_ops_frac"] = "ratio"
    if trace:
        layer_names = traced[0]["layers"] if traced else {}
        for name in layer_names:
            metrics[name] = _median([c["layers"][name] for c in traced])
            units[name] = layer_unit(name)
        traced_s = [c["cycle_s"] for c in traced if "cycle_s" in c]
        overhead = _median(traced_s)[0] - metrics["cycle_s"][0]
        metrics["trace.overhead_s"] = (overhead, len(traced_s))
        metrics["trace.overhead_frac"] = (
            overhead / metrics["cycle_s"][0] if cycle_s else 0.0,
            len(traced_s),
        )
        units["trace.overhead_s"] = "s"
        units["trace.overhead_frac"] = "ratio"
    return metrics, units, failures, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + 3 * args.seconds + DEADLINE_MARGIN_S

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a postcal checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        spec = workloads.prepare(args.workload, ROOT, work, args.seed)
        (work / "spec.json").write_text(json.dumps(spec))
        window = args.seconds / PROCESSES
        results = [run_worker(work, k, window, args.trace, deadline) for k in range(PROCESSES)]
        checked = check_contents(spec, work, results)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, units, failures, attempted, failed = summarise(spec, results, checked, args.trace)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  processes {PROCESSES}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, n) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<15} n={n}")
    for message in failures[:20]:
        print(f"  check failed: {message}")
    missing_hooks = sorted({h for r in results for h in r["missing_hooks"]})
    if missing_hooks:
        print(f"  untraced (attribute not found): {', '.join(missing_hooks)}")

    shown = END_TO_END if not args.trace else {
        n: u for n, u in units.items() if n not in END_TO_END
    }
    record = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": shown[n]} for n in shown},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    detail = {"args": vars(args), "env": env, "failures": failures,
              "samples": {n: metrics[n][1] for n in metrics}, "result": record}
    if args.trace:
        detail["spans"] = [dict(s, worker=k) for k, r in enumerate(results) for s in r["spans"]]
    (out_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
