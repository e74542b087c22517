"""Differential tests: the per-DC sharded stepper vs the scalar reference.

The contract extends the PR 2 batch/scalar one: ``ShardedFleet.step_report``
— the stepper behind ``system.step(batch=True)`` — reproduces the scalar
reference ``system.step(batch=False)`` within 1e-9 on every
:class:`~repro.sim.multidc.IntervalReport` field, ``step_metrics``
reproduces the in-memory reduction :func:`repro.sim.metrics.metrics_of` of
the scalar report within 1e-9, both leave the system in an equivalent state
(grants, ``last_demands``, pending blackouts), and the per-shard reductions
obey the cross-shard conservation laws
(:func:`repro.arena.invariants.check_shard_conservation`) — including on
empty shards (zero-VM DCs after failures or skewed fleet mixes).
"""

import dataclasses

import numpy as np
import pytest

from repro.arena.invariants import (assert_shard_conservation,
                                    assert_system_states_match,
                                    check_shard_conservation)
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.profit import PriceBook
from repro.sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector
from repro.sim.fleet import FleetState, report_max_abs_diff
from repro.sim.machines import VirtualMachine
from repro.sim.metrics import InMemoryMetricsSink, metrics_of
from repro.sim.multidc import MultiDCSystem
from repro.sim.network import paper_network_model
from repro.sim.sharding import ShardedFleet
from repro.workload.traces import SourceSeries, WorkloadTrace

TOL = 1e-9

#: Every numeric field of an IntervalMetrics, for field-wise comparison.
METRIC_FIELDS = ("mean_sla", "total_watts", "total_energy_wh", "n_pms_on",
                 "n_migrations", "n_inter_dc_migrations", "revenue_eur",
                 "migration_penalty_eur", "energy_cost_eur", "profit_eur",
                 "total_rps")


def make_pair(n_vms=14, pms_per_dc=2, n_dcs=4, T=5, seed=0, rps_hi=30.0):
    """Two identical (system, trace) pairs for side-by-side stepping."""
    def build():
        rng = np.random.default_rng(seed)
        locs = ["BCN", "BST", "BNG", "BRS"][:n_dcs]
        dcs = [build_datacenter(loc, pms_per_dc) for loc in locs]
        vms = {f"vm{i}": VirtualMachine(vm_id=f"vm{i}")
               for i in range(n_vms)}
        system = MultiDCSystem(
            datacenters=dcs, vms=vms, network=paper_network_model(),
            prices=PriceBook(energy_price_eur_kwh=PAPER_ENERGY_PRICES))
        trace = WorkloadTrace(interval_s=600.0)
        for i, vm_id in enumerate(vms):
            for src in locs[: 1 + i % len(locs)]:
                trace.add(vm_id, src, SourceSeries(
                    rps=rng.uniform(0.0, rps_hi, T),
                    bytes_per_req=rng.uniform(1000.0, 8000.0, T),
                    cpu_time_per_req=rng.uniform(0.005, 0.05, T)))
        return system, trace

    return build(), build()


def deploy_round_robin(system):
    pm_ids = [pm.pm_id for dc in system.datacenters for pm in dc.pms]
    for i, vm_id in enumerate(system.vms):
        system.deploy(vm_id, pm_ids[i % len(pm_ids)])


def deploy_skewed(system):
    """Every VM lands in the first DC: every other shard is empty."""
    pm_ids = [pm.pm_id for pm in system.datacenters[0].pms]
    for i, vm_id in enumerate(system.vms):
        system.deploy(vm_id, pm_ids[i % len(pm_ids)])


def assert_metrics_close(a, b, tol=TOL):
    for name in METRIC_FIELDS:
        assert abs(getattr(a, name) - getattr(b, name)) < tol, name
    assert a.t == b.t and a.interval_s == b.interval_s


class TestStepReportParity:
    def test_basic_interval(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        ra = sa.step(trace, 0, batch=False)
        rb = ShardedFleet.for_system(sb, trace).step_report(trace, 0)
        assert report_max_abs_diff(ra, rb) < TOL
        assert_system_states_match(sa, sb, tol=TOL)

    def test_every_interval_of_a_run(self):
        (sa, trace), (sb, _) = make_pair(T=6, seed=3)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        shf = ShardedFleet.for_system(sb, trace)
        for t in range(trace.n_intervals):
            ra = sa.step(trace, t, batch=False)
            rb = shf.step_report(trace, t)
            assert report_max_abs_diff(ra, rb) < TOL
        assert_system_states_match(sa, sb, tol=TOL)

    def test_unplaced_vms_reported(self):
        (sa, trace), (sb, _) = make_pair(n_vms=10)
        # Leave three VMs unplaced on both sides.
        for i, vm_id in enumerate(sa.vms):
            if i >= 3:
                pm = [p for dc in sa.datacenters for p in dc.pms][i % 8]
                sa.deploy(vm_id, pm.pm_id)
                sb.deploy(vm_id, pm.pm_id)
        ra = sa.step(trace, 0, batch=False)
        rb = ShardedFleet.for_system(sb, trace).step_report(trace, 0)
        assert report_max_abs_diff(ra, rb) < TOL
        unplaced = [v for v in rb.vms.values() if not v.pm_id]
        assert len(unplaced) == 3
        assert all(v.sla == 0.0 and v.revenue_eur == 0.0 for v in unplaced)

    def test_migration_blackout_and_penalty(self):
        (sa, trace), (sb, _) = make_pair(seed=5)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        # Force cross-DC moves so blackout penalties are charged.
        target = sa.datacenters[-1].pms[0].pm_id
        moves = {vm_id: target for vm_id in list(sa.vms)[:4]}
        ma = sa.apply_schedule(moves)
        mb = sb.apply_schedule(moves)
        ra = sa.step(trace, 0, migrations=ma, batch=False)
        rb = ShardedFleet.for_system(sb, trace).step_report(
            trace, 0, migrations=mb)
        assert ra.profit.migration_penalty_eur > 0
        assert report_max_abs_diff(ra, rb) < TOL
        assert_system_states_match(sa, sb, tol=TOL)

    def test_powered_off_hosts(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_skewed(sa)
        deploy_skewed(sb)
        for s in (sa, sb):
            for dc in s.datacenters[1:]:
                for pm in dc.pms:
                    pm.set_power(False)
        ra = sa.step(trace, 0, batch=False)
        rb = ShardedFleet.for_system(sb, trace).step_report(trace, 0)
        assert report_max_abs_diff(ra, rb) < TOL


class TestStepMetricsParity:
    def test_metrics_match_scalar_reduction(self):
        (sa, trace), (sb, _) = make_pair(T=6, seed=7)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        shf = ShardedFleet.for_system(sb, trace)
        for t in range(trace.n_intervals):
            expected = metrics_of(sa.step(trace, t, batch=False))
            got = shf.step_metrics(trace, t)
            assert_metrics_close(got, expected)
        # KPI-only mode still performs the full state writeback.
        assert_system_states_match(sa, sb, tol=TOL)

    def test_metrics_and_report_modes_agree(self):
        (sa, trace), (sb, _) = make_pair(seed=11)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        m = ShardedFleet.for_system(sa, trace).step_metrics(trace, 0)
        r = ShardedFleet.for_system(sb, trace).step_report(trace, 0)
        assert_metrics_close(m, metrics_of(r))

    def test_migration_counts_forwarded(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        target = sb.datacenters[-1].pms[0].pm_id
        moves = {vm_id: target for vm_id in list(sb.vms)[:3]}
        sa.apply_schedule(moves)
        mb = sb.apply_schedule(moves)
        m = ShardedFleet.for_system(sb, trace).step_metrics(
            trace, 0, migrations=mb)
        assert m.n_migrations == len(mb)
        assert m.n_inter_dc_migrations == sum(1 for e in mb if e.inter_dc)
        assert m.migration_penalty_eur > 0


class TestScheduledRunsWithFailures:
    def run_pair(self, sharded, batch=True):
        (system, trace), _ = make_pair(n_vms=16, T=6, seed=13)
        deploy_round_robin(system)
        scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                          sla_move_threshold=0.9)
        injector = FailureInjector(rng=np.random.default_rng(99),
                                   fail_prob_per_interval=0.2,
                                   repair_intervals=2, max_down=2)
        return run_simulation(system, trace, scheduler=scheduler,
                              failure_injector=injector, sharded=sharded,
                              batch=batch)

    def test_full_run_matches_scalar(self):
        ref = self.run_pair(sharded=False, batch=False)
        shard = self.run_pair(sharded=True)
        assert len(ref) == len(shard)
        for ra, rb in zip(ref.reports, shard.reports):
            assert ra.placement == rb.placement
            assert report_max_abs_diff(ra, rb) < TOL

    def test_failures_actually_fired(self):
        history = self.run_pair(sharded=True)
        # The scenario must exercise orphaning for the parity to mean
        # anything: at fail_prob=0.2 over 6 intervals some host went down.
        downs = [r for r in history.reports
                 if any(not p.on for p in r.pms.values())]
        assert downs


class TestEmptyShards:
    def test_zero_vm_dcs(self):
        (sa, trace), (sb, _) = make_pair(seed=17)
        deploy_skewed(sa)
        deploy_skewed(sb)
        shf = ShardedFleet.for_system(sb, trace)
        ra = sa.step(trace, 0, batch=False)
        rb = shf.step_report(trace, 0)
        assert report_max_abs_diff(ra, rb) < TOL
        empty = [s for s in shf.last_shard_metrics if s.n_placed == 0]
        assert len(empty) == len(sb.datacenters) - 1
        assert all(s.revenue_eur == 0.0 and s.sla_sum == 0.0
                   for s in empty)
        assert_shard_conservation(shf, rb)

    def test_zero_vm_dcs_metrics_mode(self):
        (sa, trace), (sb, _) = make_pair(seed=19)
        deploy_skewed(sa)
        deploy_skewed(sb)
        shf = ShardedFleet.for_system(sb, trace)
        m = shf.step_metrics(trace, 0)
        assert_metrics_close(m, metrics_of(sa.step(trace, 0, batch=False)))
        assert_shard_conservation(shf, m)

    def test_nothing_placed_at_all(self):
        (sa, trace), (sb, _) = make_pair()
        ra = sa.step(trace, 0, batch=False)
        shf = ShardedFleet.for_system(sb, trace)
        rb = shf.step_report(trace, 0)
        assert report_max_abs_diff(ra, rb) < TOL
        assert all(s.n_placed == 0 for s in shf.last_shard_metrics)
        assert shf.last_unplaced is not None
        m = ShardedFleet.for_system(sb, trace).step_metrics(trace, 1)
        assert m.revenue_eur == 0.0 and m.mean_sla == 0.0
        assert m.total_rps > 0.0


class TestConservationLaws:
    def test_clean_on_scheduled_run(self):
        (system, trace), _ = make_pair(n_vms=16, T=6, seed=23)
        deploy_round_robin(system)
        scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                          sla_move_threshold=0.9)
        injector = FailureInjector(rng=np.random.default_rng(4),
                                   fail_prob_per_interval=0.2,
                                   repair_intervals=2, max_down=2)
        for t in range(trace.n_intervals):
            system.apply_tariffs(t)
            injector.step(system, t)
            proposal = scheduler(system, trace, t)
            migrations = system.apply_schedule(proposal) if proposal else []
            shf = ShardedFleet.for_system(system, trace)
            m = shf.step_metrics(trace, t, migrations=migrations)
            assert_shard_conservation(shf, m)

    def test_corrupted_record_caught(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        shf = ShardedFleet.for_system(system, trace)
        m = shf.step_metrics(trace, 0)
        shf.last_shard_metrics[0] = dataclasses.replace(
            shf.last_shard_metrics[0], revenue_eur=1e6)
        violations = check_shard_conservation(shf, m)
        assert any("revenue_eur" in v for v in violations)

    def test_unstepped_facade_flagged(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        shf = ShardedFleet.for_system(system, trace)
        assert check_shard_conservation(shf) == [
            "no shard metrics recorded (step the fleet first)"]


class TestFacadeCache:
    def test_cache_reused_across_steps(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        shf = ShardedFleet.for_system(system, trace)
        shf.step_metrics(trace, 0)
        assert ShardedFleet.for_system(system, trace) is shf

    def test_cache_invalidated_by_new_trace(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        shf = ShardedFleet.for_system(system, trace)
        longer = WorkloadTrace(interval_s=600.0)
        rng = np.random.default_rng(0)
        for (vm_id, src), s in trace.series.items():
            longer.add(vm_id, src, SourceSeries(
                rps=np.concatenate([s.rps, s.rps]),
                bytes_per_req=np.concatenate([s.bytes_per_req,
                                              s.bytes_per_req]),
                cpu_time_per_req=np.concatenate([s.cpu_time_per_req,
                                                 s.cpu_time_per_req])))
        fresh = ShardedFleet.for_system(system, longer)
        assert fresh is not shf
        assert fresh.fleet is FleetState.for_system(system, longer)

    def test_stale_facade_steps_via_fresh_snapshot(self):
        """A facade held across a trace swap must not compute on stale
        arrays: it rebuilds and the result matches the fresh path."""
        (sa, trace), (sb, _) = make_pair(T=4)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        stale = ShardedFleet.for_system(sb, trace)
        scaled = trace.scaled(1.7)
        ra = sa.step(scaled, 0, batch=False)
        rb = stale.step_report(scaled, 0)
        assert report_max_abs_diff(ra, rb) < TOL

    def test_shards_cover_all_pms(self):
        (system, trace), _ = make_pair(pms_per_dc=3)
        deploy_round_robin(system)
        shf = ShardedFleet.for_system(system, trace)
        ranges = [(s.lo, s.hi) for s in shf.shards]
        assert ranges == shf.fleet.dc_pm_ranges
        assert ranges[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert ranges[-1][1] == len(shf.fleet.pms)


class TestEngineShardedFlag:
    def test_sharded_requires_batch(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        with pytest.raises(ValueError, match="requires batch"):
            run_simulation(system, trace, sharded=True, batch=False)

    def test_keep_reports_false_requires_sink(self):
        (system, trace), _ = make_pair()
        deploy_round_robin(system)
        with pytest.raises(ValueError, match="requires a sink"):
            run_simulation(system, trace, keep_reports=False)

    def test_streamed_sharded_run_matches_in_memory(self):
        (sa, trace), (sb, _) = make_pair(T=6, seed=29)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        history = run_simulation(sa, trace)
        sink = InMemoryMetricsSink()
        empty = run_simulation(sb, trace, sink=sink, keep_reports=False,
                               sharded=True)
        assert len(empty) == 0
        assert len(sink) == len(history)
        sm, hm = sink.summary(), history.summary()
        for name in ("avg_sla", "avg_watts", "total_energy_wh",
                     "revenue_eur", "migration_penalty_eur",
                     "energy_cost_eur", "profit_eur"):
            assert abs(getattr(sm, name) - getattr(hm, name)) < TOL, name
        assert sm.n_intervals == hm.n_intervals
        assert sm.n_migrations == hm.n_migrations


class TestDeployMany:
    def test_matches_sequential_deploys(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_round_robin(sa)
        pm_ids = [pm.pm_id for dc in sb.datacenters for pm in dc.pms]
        sb.deploy_many({vm_id: pm_ids[i % len(pm_ids)]
                        for i, vm_id in enumerate(sb.vms)})
        assert sa.placement() == sb.placement()
        ra = sa.step(trace, 0, batch=True)
        rb = sb.step(trace, 0, batch=True)
        assert report_max_abs_diff(ra, rb) < TOL

    def test_validates_before_mutating(self):
        (system, _), _ = make_pair()
        pm0 = system.datacenters[0].pms[0].pm_id
        vm_ids = list(system.vms)
        with pytest.raises(KeyError):
            system.deploy_many({vm_ids[0]: pm0, "nope": pm0})
        # Atomic: the valid entry must not have been placed.
        assert system.placement() == {}
        with pytest.raises(KeyError):
            system.deploy_many({vm_ids[0]: "no-such-pm"})
        assert system.placement() == {}

    def test_rejects_already_placed(self):
        (system, _), _ = make_pair()
        pm0 = system.datacenters[0].pms[0].pm_id
        vm0 = next(iter(system.vms))
        system.deploy(vm0, pm0)
        with pytest.raises(ValueError, match="already placed"):
            system.deploy_many({vm0: pm0})

    def test_powers_hosts_on(self):
        (system, _), _ = make_pair()
        pm = system.datacenters[1].pms[0]
        pm.set_power(False)
        vm0 = next(iter(system.vms))
        system.deploy_many({vm0: pm.pm_id})
        assert pm.on and vm0 in pm.granted
