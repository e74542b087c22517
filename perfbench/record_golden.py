"""Record the golden KPIs the benchmark compares each run against.

Usage, from the repository root::

    python3 perfbench/record_golden.py --seeds 0-15

For every workload and seed this plays only the fixed KPI window (the
first intervals of ``hier_oracle`` and ``stream_sharded``, the first
steps of ``serve_ml``, whose KPIs do not depend on the seed), requires
every other output check to pass, and writes ``perfbench/golden.json``.
Re-record only when a change is meant to alter the simulated outcome,
and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import GOLDEN_PATH, WORKLOADS, run_workload  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15",
                        help="inclusive seed range, e.g. 0-15")
    args = parser.parse_args(argv)
    golden = {}
    for name in WORKLOADS:
        seeds = [0] if name == "serve_ml" else _seeds(args.seeds)
        records = golden.setdefault(name, {})
        for seed in seeds:
            result = run_workload(name, seed, 0.0, False, setups=1)
            failed = [c for c in result.checks
                      if not c[1] and c[0] != "golden_kpis"]
            if failed or not result.kpis:
                print(f"{name} seed {seed}: checks failed: {failed}")
                return 1
            records["*" if name == "serve_ml" else str(seed)] = result.kpis
            print(f"{name} seed {seed}: {result.kpis}", flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
