"""Bench + gates for sharded stepping and streaming at the 50k-VM scale.

Two claims from the PR-8 acceptance, each pinned as an assertion:

* **Parity at scale** — ``huge_fleet_stream`` plays the same static
  placement through the per-DC stepper's two modes: KPI-only
  (``sharded``) and full reports reduced afterwards (``monolithic``);
  every aggregate KPI agrees within 1e-9 (relative).  Both variants
  stream their per-interval KPIs to JSONL sinks, so the bench itself is
  a bounded-memory run — the 50k-VM in-memory history (hundreds of MB
  of per-VM reports) never materializes.
* **Bounded memory** — at a reduced fleet (``REPRO_HUGE_FLEET_MEM_SCALE``,
  default 0.2 = 10k VMs, small enough to tracemalloc-instrument cheaply)
  the streamed sharded run's peak traced memory stays below half the
  in-memory run's peak, and is *flat in the horizon*: tripling the
  number of intervals must not grow the streamed peak by more than 25 %,
  while the in-memory peak (one per-VM report per interval) grows
  near-linearly.

Knobs (the CI memory-budget job turns them down; nightly can turn up):

* ``REPRO_HUGE_FLEET_SCALE`` — fleet multiplier for the wall-clock
  bench; 1.0 is the 50k-VM run of the ROADMAP, 2.0 the 100k-VM run.
* ``REPRO_HUGE_FLEET_INTERVALS`` — horizon of the wall-clock bench.
* ``REPRO_HUGE_FLEET_MEM_SCALE`` — fleet multiplier for the
  tracemalloc gates.
"""

import gc
import json
import os
import tracemalloc

import pytest

from repro.experiments.catalog import huge_fleet_stream_spec
from repro.experiments.engine import format_scenario_result, run_scenario
from repro.sim.engine import run_simulation
from repro.sim.metrics import JsonlMetricsSink

SCALE = float(os.environ.get("REPRO_HUGE_FLEET_SCALE", "1.0"))
INTERVALS = int(os.environ.get("REPRO_HUGE_FLEET_INTERVALS", "6"))
MEM_SCALE = float(os.environ.get("REPRO_HUGE_FLEET_MEM_SCALE", "0.2"))

_RESULTS = {}


def _run_streamed(tmp_dir):
    spec = huge_fleet_stream_spec(n_intervals=INTERVALS, scale=SCALE)
    return run_scenario(
        spec, sink_factory=lambda name: JsonlMetricsSink(
            os.path.join(tmp_dir, f"kpis.{name}.jsonl")))


def _result(tmp_path_factory):
    if "huge" not in _RESULTS:
        out = tmp_path_factory.mktemp("huge_fleet_stream")
        _RESULTS["huge"] = run_scenario(
            huge_fleet_stream_spec(n_intervals=INTERVALS, scale=SCALE),
            sink_factory=lambda name: JsonlMetricsSink(
                out / f"kpis.{name}.jsonl"))
    return _RESULTS["huge"]


def test_bench_huge_fleet_stream(benchmark, tmp_path_factory):
    """Wall-clock of the full streamed run (both variants, 50k VMs)."""
    out = tmp_path_factory.mktemp("huge_fleet_stream")
    _RESULTS["huge"] = benchmark.pedantic(
        lambda: run_scenario(
            huge_fleet_stream_spec(n_intervals=INTERVALS, scale=SCALE),
            sink_factory=lambda name: JsonlMetricsSink(
                out / f"kpis.{name}.jsonl")),
        rounds=1, iterations=1)
    print()
    print(format_scenario_result(_RESULTS["huge"]))


class TestHugeFleetParity:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        return _result(tmp_path_factory)

    def test_fleet_is_at_scale(self, result):
        params = result.spec.fleet.params
        assert params["n_vms"] >= int(50_000 * SCALE)
        assert params["n_dcs"] >= 8

    def test_sharded_matches_monolithic_within_1e9(self, result):
        sharded = result.variant("sharded").kpis()
        mono = result.variant("monolithic").kpis()
        assert set(sharded) == set(mono)
        for key in sharded:
            if key == "run_s":
                continue
            assert sharded[key] == pytest.approx(mono[key], rel=1e-9,
                                                 abs=1e-9), key

    def test_both_variants_streamed(self, result):
        assert set(result.streams) == {"sharded", "monolithic"}
        for path in result.streams.values():
            with open(path) as fh:
                rows = [json.loads(line) for line in fh]
            assert len(rows) == INTERVALS

    def test_streamed_kpis_are_live(self, result):
        s = result.variant("sharded").summary
        assert s.n_intervals == INTERVALS
        assert 0.0 < s.avg_sla <= 1.0
        assert s.total_energy_wh > 0.0


# =============================================================================
# Memory gates: streamed sharded run vs the in-memory report history
# =============================================================================

def _peak_bytes(horizon, streamed, tmp_dir):
    """Peak traced bytes of one run; the fleet build stays untraced."""
    spec = huge_fleet_stream_spec(n_intervals=horizon, scale=MEM_SCALE)
    system, fleet_trace = spec.fleet.build()
    trace = spec.workload.build(fleet_trace)
    gc.collect()
    tracemalloc.start()
    try:
        if streamed:
            with JsonlMetricsSink(
                    os.path.join(tmp_dir, f"gate{horizon}.jsonl")) as sink:
                run_simulation(system, trace, sharded=True, sink=sink,
                               keep_reports=False)
        else:
            run_simulation(system, trace)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        tmp = str(tmp_path_factory.mktemp("memory_gate"))
        return {
            ("stream", 2): _peak_bytes(2, True, tmp),
            ("stream", 6): _peak_bytes(6, True, tmp),
            ("memory", 2): _peak_bytes(2, False, tmp),
            ("memory", 6): _peak_bytes(6, False, tmp),
        }

    def test_streamed_peak_below_half_of_in_memory(self, peaks):
        streamed, in_memory = peaks[("stream", 6)], peaks[("memory", 6)]
        assert streamed < 0.5 * in_memory, (
            f"streamed peak {streamed / 1e6:.1f} MB not below half the "
            f"in-memory peak {in_memory / 1e6:.1f} MB")

    def test_streamed_peak_flat_in_horizon(self, peaks):
        short, long = peaks[("stream", 2)], peaks[("stream", 6)]
        assert long < 1.25 * short, (
            f"streamed peak grew with the horizon: {short / 1e6:.1f} MB "
            f"at T=2 vs {long / 1e6:.1f} MB at T=6")

    def test_in_memory_peak_grows_with_horizon(self, peaks):
        """The contrast that makes the flatness gate meaningful: the
        report history really is linear in the horizon."""
        short, long = peaks[("memory", 2)], peaks[("memory", 6)]
        assert long > 1.5 * short
