"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the gated end-to-end metrics with no tracing
installed; ``--trace 1`` is a separate run that wraps the program's public
calls and reports the per-layer split (see ``perfbench/layers.json`` for
what each layer metric should move).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"
WORKLOADS = ("serve-hot", "serve-cold", "serve-http", "train-eval")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _metric_table() -> tuple:
    """(end-to-end units, per-layer units, per-layer targets) by metric name."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        _fail(f"cannot read the benchmark definition: {error}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer, layers


def _run_workload(args, workdir: Path):
    if args.workload in ("serve-hot", "serve-cold"):
        import serve_inproc as module
    elif args.workload == "serve-http":
        import serve_http as module
    else:
        import train_eval as module
    return module.run(args.workload, args.seed, float(args.seconds), bool(args.trace), workdir)


def _print_report(args, report, units: dict, targets: dict) -> dict:
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": host.fingerprint(),
                "samples": report.samples,
                "notes": report.notes,
            }
        )
    )
    metrics = {}
    for name, unit in units.items():
        value = float(report.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        moves = targets.get(name, {}).get("moves", "")
        print(f"  {name:<32} {value:>14.6g} {unit:<8} {moves}")
    print(
        f"  attempted {report.attempted}  failed {report.failed}  "
        f"samples {report.samples}"
    )
    for problem in report.problems:
        print(f"  problem: {problem}")
    return metrics


def _run_all(args) -> None:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            _fail(f"workload {workload} exited with code {completed.returncode}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A parent shell may start this process with SIGINT ignored, which every
    # child would inherit; the serve-http server is stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.seconds < 1:
        _fail("--seconds must be >= 1")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {SOURCE}; run from the root of a checkout")
    end_to_end, per_layer, targets = _metric_table()
    if args.workload == "all":
        _run_all(args)
        return

    sys.path.insert(0, str(SOURCE))
    workdir = OUTPUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(end_to_end) - set(report.metrics)) if not args.trace else []
    if missing:
        _fail(f"workload {args.workload} did not measure {missing}")
    if report.tracer is not None:
        path = OUTPUT / f"spans-{args.workload}-seed{args.seed}-{int(time.time())}.jsonl"
        report.tracer.dump(path, extra={"workload": args.workload, "seed": args.seed})
        report.notes["spans_file"] = str(path.relative_to(ROOT))
    metrics = _print_report(args, report, units, targets)
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
