"""The repository's benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload hier_oracle --seed 3 \\
        --seconds 20 --trace 0

With ``--workload``, one workload runs in this (fresh) interpreter and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` lists.  Without ``--workload``, every workload runs
untraced and then traced, each in its own child interpreter (so peak
memory, set-up time and process-level caches cannot leak between
workloads), and a summary table follows.  The exit status is non-zero
when any output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: idle BLAS threads spin, and
# their spinning would count in the CPU time the benchmark measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their spans (inside the checkout).
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("hier_oracle", "stream_sharded", "serve_ml")
#: A workload child that runs longer than this is stopped and failed.
CHILD_TIMEOUT_S = 180


def _declared_metrics(trace: bool):
    """Metric names ``BENCHMARK.json`` declares for this mode, if any."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _say(line: str) -> None:
    print(f"[perfbench] {line}", flush=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_workload

    _say(f"workload={workload} seed={seed} seconds={seconds:g} "
         f"trace={int(trace)}")
    result = run_workload(workload, seed, seconds, trace)
    for note in result.notes:
        _say(note)
    if trace:
        metrics = {k: (v, u, None) for k, (v, u) in result.layers.items()}
    else:
        metrics = result.e2e
    rate = result.failed / result.attempted if result.attempted else 0.0
    _say(f"error_rate = {rate:.6g} ratio ({result.failed} failed of "
         f"n={result.attempted} operations)")
    for name, (value, unit, n) in sorted(metrics.items()):
        count = f" (n={n})" if n is not None else ""
        _say(f"{name} = {value:.6g} {unit}{count}")
    for name, ok, detail in result.checks:
        _say(f"check {name}: {'ok' if ok else 'FAILED'} - {detail}")
    if result.tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        _say(f"wrote {result.tracer.dump(path)} spans to "
             f"{path.relative_to(ROOT)}")
    declared = _declared_metrics(trace)
    if declared is not None and declared != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - declared)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in sorted(metrics.items())},
    }), flush=True)
    return 0 if result.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child interpreter."""
    rows = []
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _say(f"{workload} trace={trace}: timed out")
                return 1
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                _say(f"{workload} trace={trace}: no result "
                     f"(exit {proc.returncode})")
                return 1
            if proc.returncode != 0 or not result["correct"]:
                status = 1
            rows.append((workload, trace, result))
    _say("summary (end-to-end metrics come from the untraced runs)")
    for workload, trace, result in rows:
        if trace:
            continue
        cells = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items())
        _say(f"{workload}: correct={result['correct']} attempted="
             f"{result['attempted']} failed={result['failed']}: {cells}")
    _say("all output checks passed" if status == 0
         else "SOME OUTPUT CHECKS FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
