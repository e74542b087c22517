"""Streaming-vs-in-memory parity over the whole scenario catalog.

PR-8 acceptance: for every catalog scenario, running with disk sinks
(``keep_reports=False``, per-interval reports dropped after feeding the
sink) must be *indistinguishable* from the in-memory run at the KPI
level — identical KPI dicts (bit-identical for report-building variants;
the 1e-9 contract for sharded ones, whose KPI-only streamed step sums
shard by shard), identical per-interval series, and ``scenarios
diff``-clean ``--json`` artifacts.

Every variant-bearing scenario in the registry is exercised; heavy
scenarios run on reduced fleets/horizons via the same spec-function
overrides the catalog tests use.  The table-style analysis scenarios
(``scaling``, ``table1``…) have no variants and nothing to stream — the
CLI rejects ``--stream`` for them (covered in ``tests/test_cli.py``).
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.experiments.catalog import (REGISTRY, follow_the_sun_8dc_spec,
                                       ml_large_fleet_spec)
from repro.experiments.engine import run_scenario
from repro.sim.metrics import CsvMetricsSink, JsonlMetricsSink

# Reduced-size spec builders: registry overrides where the default fleet
# is already small, direct spec-function calls (smaller fleets, less
# training) for the heavy ones — same idiom as tests/experiments/
# test_catalog.py.
SPEC_BUILDERS = {
    "delocation": lambda: REGISTRY.spec("delocation", n_intervals=6),
    "figure4": lambda: REGISTRY.spec("figure4", n_intervals=6),
    "figure5": lambda: REGISTRY.spec("figure5", n_intervals=6),
    "figure6": lambda: REGISTRY.spec("figure6", n_intervals=6),
    "figure7": lambda: REGISTRY.spec("figure7", n_intervals=6),
    "figure8": lambda: REGISTRY.spec("figure8", n_intervals=4),
    "flash_crowd_failures":
        lambda: REGISTRY.spec("flash_crowd_failures", n_intervals=8),
    "follow_the_sun":
        lambda: REGISTRY.spec("follow_the_sun", n_intervals=6),
    "follow_the_sun_8dc":
        lambda: follow_the_sun_8dc_spec(n_intervals=4, pms_per_dc=6,
                                        n_vms=120),
    "harvest_ablation":
        lambda: REGISTRY.spec("harvest_ablation", n_intervals=6),
    "huge_fleet_stream":
        lambda: REGISTRY.spec("huge_fleet_stream", n_intervals=4,
                              scale=0.002),
    "ml_large_fleet":
        lambda: ml_large_fleet_spec(n_intervals=2, n_hosts=24, n_vms=60,
                                    bagging=2),
    "quickstart": lambda: REGISTRY.spec("quickstart", n_intervals=8),
    "surviving_failures":
        lambda: REGISTRY.spec("surviving_failures", n_intervals=8),
    "table3": lambda: REGISTRY.spec("table3", n_intervals=6),
}

#: One scenario exercises the CSV sink end to end; the rest stream JSONL.
CSV_SCENARIO = "quickstart"

# run_s is wall-clock, never comparable between two runs (the diff tool
# excludes it for the same reason).
TIMING_KEYS = frozenset({"run_s"})

_PAIRS = {}


def test_catalog_coverage_is_exhaustive():
    """Every variant-bearing registry scenario is in the parity suite."""
    playable = {name for name in REGISTRY.names()
                if REGISTRY.spec(name).variants}
    assert playable == set(SPEC_BUILDERS)


def get_pair(name, tmp_path_factory):
    """(in-memory result, streamed result, stream dir) for a scenario."""
    if name not in _PAIRS:
        spec = SPEC_BUILDERS[name]()
        mem = run_scenario(spec)
        out = tmp_path_factory.mktemp(f"stream_{name}")
        sink_cls = (CsvMetricsSink if name == CSV_SCENARIO
                    else JsonlMetricsSink)
        suffix = ".csv" if name == CSV_SCENARIO else ".jsonl"
        def sink_factory(variant):
            return sink_cls(out / f"{variant}{suffix}")
        # models= reuses the in-memory run's scenario-level training, so
        # ML scenarios train once, not twice.
        streamed = run_scenario(spec, models=mem.models,
                                sink_factory=sink_factory)
        _PAIRS[name] = (mem, streamed, out)
    return _PAIRS[name]


@pytest.fixture(params=sorted(SPEC_BUILDERS), ids=str)
def pair(request, tmp_path_factory):
    return request.param, *get_pair(request.param, tmp_path_factory)


def _sharded_variants(spec):
    return {v.name for v in spec.variants if getattr(v, "sharded", False)}


class TestKpiParity:
    def test_kpis_identical(self, pair):
        name, mem, streamed, _ = pair
        sharded = _sharded_variants(mem.spec)
        assert set(mem.variants) == set(streamed.variants)
        for vname, v_mem in mem.variants.items():
            a = {k: v for k, v in v_mem.kpis().items()
                 if k not in TIMING_KEYS}
            b = {k: v for k, v in streamed.variant(vname).kpis().items()
                 if k not in TIMING_KEYS}
            if vname in sharded:
                # KPI-only stepping reduces shard-locally then sums across
                # shards — a different summation order than reducing the
                # full report, hence the 1e-9 contract rather than
                # bit-equality.
                assert set(a) == set(b)
                for k in a:
                    assert a[k] == pytest.approx(b[k], rel=1e-9,
                                                 abs=1e-9), (vname, k)
            else:
                assert a == b, vname

    def test_series_identical(self, pair):
        name, mem, streamed, _ = pair
        sharded = _sharded_variants(mem.spec)
        for vname, v_mem in mem.variants.items():
            got = streamed.variant(vname).series
            assert set(got) == set(v_mem.series)
            for key, arr in v_mem.series.items():
                if vname in sharded:
                    assert np.allclose(got[key], arr, rtol=1e-9,
                                       atol=1e-9), (vname, key)
                else:
                    assert np.array_equal(got[key], arr), (vname, key)


class TestStreamedArtifacts:
    def test_stream_paths_recorded_and_nonempty(self, pair):
        name, mem, streamed, out = pair
        assert mem.streams == {}
        assert set(streamed.streams) == set(streamed.variants)
        suffix = ".csv" if name == CSV_SCENARIO else ".jsonl"
        for vname, path in streamed.streams.items():
            # Not with_suffix(): figure8's variant names contain dots.
            rows = out / f"{vname}{suffix}"
            assert str(rows) == path
            assert rows.stat().st_size > 0

    def test_jsonl_row_count_matches_horizon(self, pair):
        name, mem, streamed, _ = pair
        if name == CSV_SCENARIO:
            pytest.skip("CSV scenario covered by sink unit tests")
        for vname, path in streamed.streams.items():
            with open(path) as fh:
                rows = [json.loads(line) for line in fh]
            n = len(mem.variant(vname).series["sla"])
            assert len(rows) == n
            assert [r["t"] for r in rows] == list(range(n))

    def test_streams_not_in_artifact_schema(self, pair):
        _, __, streamed, ___ = pair
        assert "streams" not in streamed.to_json_dict()


class TestDiffClean:
    def test_scenarios_diff_exit_zero(self, pair, tmp_path, capsys):
        name, mem, streamed, _ = pair
        a = tmp_path / "mem.json"
        b = tmp_path / "streamed.json"
        mem.save_json(a)
        streamed.save_json(b)
        rc = cli.main(["scenarios", "diff", str(a), str(b),
                       "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0, out
