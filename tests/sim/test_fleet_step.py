"""Differential tests: array-backed stepping vs the scalar reference.

The contract (same style as PR 1's batch scoring): ``step(batch=True)``
reproduces ``step(batch=False)`` within 1e-9 on every
:class:`~repro.sim.multidc.IntervalReport` field — per-VM stats, per-PM
stats, profit, placement — and leaves the system in an equivalent state
(grants, ``last_demands``, pending blackouts), interval after interval.
"""

import numpy as np
import pytest

# The state-equivalence helper moved to the arena's shared invariant
# suite (PR 7); these tests keep pinning the same contract through it.
from repro.arena.invariants import assert_system_states_match
from repro.core.policies import oracle_scheduler
from repro.core.profit import PriceBook
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)
from repro.sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
from repro.sim.engine import run_simulation
from repro.sim.fleet import FleetState, report_max_abs_diff
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.multidc import MultiDCSystem
from repro.sim.network import paper_network_model
from repro.sim.tariffs import time_of_use_tariff
from repro.workload.traces import SourceSeries, WorkloadTrace

TOL = 1e-9


def make_pair(n_vms=12, pms_per_dc=2, n_dcs=3, T=5, seed=0, rps_hi=30.0,
              pm_counts=None):
    """Two identical (system, trace) pairs for side-by-side stepping.

    ``pm_counts`` optionally gives each DC its own PM count (one entry per
    DC, overriding ``pms_per_dc``); a 0 entry builds a zero-PM datacenter.
    """
    def build():
        rng = np.random.default_rng(seed)
        locs = ["BCN", "BST", "BNG", "BRS"][:n_dcs]
        counts = pm_counts or [pms_per_dc] * len(locs)
        dcs = [build_datacenter(loc, n) for loc, n in zip(locs, counts)]
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


def assert_states_match(sys_a, sys_b):
    """Grants, last_demands and pending blackouts agree within TOL."""
    assert_system_states_match(sys_a, sys_b, tol=TOL)


class TestStepEquivalence:
    def test_basic_interval(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert report_max_abs_diff(ra, rb) < TOL
        assert_states_match(sa, sb)

    def test_every_interval_of_a_run(self):
        (sa, trace), (sb, _) = make_pair(T=6, seed=3)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        for t in range(trace.n_intervals):
            ra = sa.step(trace, t, batch=False)
            rb = sb.step(trace, t, batch=True)
            assert report_max_abs_diff(ra, rb) < TOL

    def test_heavy_contention(self):
        """Overload: stress > 1, queueing, memory saturation."""
        (sa, trace), (sb, _) = make_pair(n_vms=10, pms_per_dc=1, n_dcs=2,
                                         rps_hi=120.0, seed=5)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert report_max_abs_diff(ra, rb) < TOL
        # The scenario actually exercises overload.
        assert any(v.queue_len > 0 for v in ra.vms.values())

    def test_zero_load_interval(self):
        (sa, trace), (sb, _) = make_pair(rps_hi=1e-12, seed=9)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert report_max_abs_diff(ra, rb) < TOL

    def test_migration_blackout_and_penalty(self):
        (sa, trace), (sb, _) = make_pair()
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        target = "BST-pm0"
        ev_a = sa.apply_schedule({"vm0": target})
        ev_b = sb.apply_schedule({"vm0": target})
        ra = sa.step(trace, 0, migrations=ev_a, batch=False)
        rb = sb.step(trace, 0, migrations=ev_b, batch=True)
        assert ra.vms["vm0"].blackout_fraction > 0.0
        assert ra.profit.migration_penalty_eur > 0.0
        assert report_max_abs_diff(ra, rb) < TOL
        # Penalty charged once in both paths.
        ra2 = sa.step(trace, 1, batch=False)
        rb2 = sb.step(trace, 1, batch=True)
        assert rb2.profit.migration_penalty_eur == 0.0
        assert report_max_abs_diff(ra2, rb2) < TOL

    def test_unplaced_vms(self):
        """Orphans (e.g. after a host failure) report SLA 0, no revenue."""
        (sa, trace), (sb, _) = make_pair(n_vms=8)
        for i in range(6):   # leave vm6, vm7 unplaced
            sa.deploy(f"vm{i}", "BCN-pm0" if i % 2 else "BST-pm0")
            sb.deploy(f"vm{i}", "BCN-pm0" if i % 2 else "BST-pm0")
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert rb.vms["vm7"].sla == 0.0
        assert rb.vms["vm7"].revenue_eur == 0.0
        assert rb.vms["vm7"].pm_id == ""
        assert report_max_abs_diff(ra, rb) < TOL

    def test_orphan_keeps_pending_blackout(self):
        """Blackout seconds of an unplaced VM are not consumed."""
        (sa, trace), (sb, _) = make_pair(n_vms=4)
        for s in (sa, sb):
            deploy_round_robin(s)
            s.apply_schedule({"vm0": "BST-pm0"})
            # Orphan the VM after the migration was booked.
            s.pm("BST-pm0").fail()
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert "vm0" in sb._pending_blackout_s
        assert report_max_abs_diff(ra, rb) < TOL
        assert_states_match(sa, sb)

    def test_powered_off_hosts(self):
        (sa, trace), (sb, _) = make_pair(n_vms=2)
        for s in (sa, sb):
            s.deploy("vm0", "BCN-pm0")
            s.deploy("vm1", "BCN-pm0")
            s.pm("BST-pm0").set_power(False)
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert rb.pms["BST-pm0"].facility_watts == 0.0
        assert report_max_abs_diff(ra, rb) < TOL

    def test_zero_pm_datacenter(self):
        """A DC with no PMs is an empty shard that hosts nothing but is
        still a traffic source for VMs hosted elsewhere."""
        (sa, trace), (sb, _) = make_pair(pm_counts=[2, 0, 2], T=3)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        for t in range(trace.n_intervals):
            ra = sa.step(trace, t, batch=False)
            rb = sb.step(trace, t, batch=True)
            assert report_max_abs_diff(ra, rb) < TOL
        assert any("BST" in v.rt_by_source for v in rb.vms.values())
        assert_states_match(sa, sb)

    def test_placed_vm_without_series_zero_load(self):
        """Pinned semantic: a placed-but-untraced VM carries zero load.

        It demands only its base memory footprint, trivially meets its
        SLA (no traffic, nothing to violate — like ``weighted_sla`` with
        no sources), earns full contract revenue, and both stepping paths
        agree within TOL (this used to raise ``KeyError`` in both).
        """
        (sa, trace), (sb, _) = make_pair(n_vms=3)
        for s in (sa, sb):
            deploy_round_robin(s)
            s.vms["ghost"] = VirtualMachine(vm_id="ghost")
            s.contracts.setdefault("ghost", s.contracts["vm0"])
            s.deploy("ghost", "BCN-pm0")
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert report_max_abs_diff(ra, rb) < TOL
        assert_states_match(sa, sb)
        for r in (ra, rb):
            ghost = r.vms["ghost"]
            assert ghost.load.rps == 0.0
            assert ghost.required.cpu == 0.0
            assert ghost.required.mem == sa.vms["ghost"].base_mem_mb
            assert ghost.rt_by_source == {}
            assert ghost.sla == 1.0
            assert ghost.revenue_eur > 0.0

    def test_unplaced_untraced_vm_invisible(self):
        """An unplaced VM with no series appears in neither report."""
        (sa, trace), (sb, _) = make_pair(n_vms=3)
        for s in (sa, sb):
            deploy_round_robin(s)
            s.vms["ghost"] = VirtualMachine(vm_id="ghost")
            s.contracts.setdefault("ghost", s.contracts["vm0"])
        ra = sa.step(trace, 0, batch=False)
        rb = sb.step(trace, 0, batch=True)
        assert "ghost" not in ra.vms and "ghost" not in rb.vms
        assert report_max_abs_diff(ra, rb) < TOL

    def test_untraced_vm_full_run_with_scheduler(self):
        """Zero-load VMs survive a whole scheduled run on both paths."""
        results = []
        for batch in (False, True):
            (s, trace), _ = make_pair(n_vms=4, T=4)
            deploy_round_robin(s)
            s.vms["ghost"] = VirtualMachine(vm_id="ghost")
            s.contracts.setdefault("ghost", s.contracts["vm0"])
            s.deploy("ghost", "BCN-pm0")
            history = run_simulation(s, trace,
                                     scheduler=oracle_scheduler(),
                                     batch=batch)
            results.append(history)
        for ra, rb in zip(results[0].reports, results[1].reports):
            assert report_max_abs_diff(ra, rb) < TOL
            # The scheduler skips the untraced VM, so it never moves.
            assert rb.placement["ghost"] == "BCN-pm0"

    def test_tariff_schedule_respected(self):
        (sa, trace), (sb, _) = make_pair()
        tariff = time_of_use_tariff(
            {"BCN": 0.10, "BST": 0.20, "BNG": 0.15},
            n_intervals=trace.n_intervals, interval_s=trace.interval_s,
            peak_multiplier=2.0, peak_start_hour=0.0, peak_end_hour=12.0)
        for s in (sa, sb):
            s.tariff_schedule = tariff
            deploy_round_robin(s)
        for t in range(3):
            sa.apply_tariffs(t)
            sb.apply_tariffs(t)
            ra = sa.step(trace, t, batch=False)
            rb = sb.step(trace, t, batch=True)
            assert report_max_abs_diff(ra, rb) < TOL


class TestRunSimulationEquivalence:
    def test_static_run_matches(self):
        (sa, trace), (sb, _) = make_pair(T=6)
        deploy_round_robin(sa)
        deploy_round_robin(sb)
        ha = run_simulation(sa, trace, batch=False)
        hb = run_simulation(sb, trace, batch=True)
        assert len(ha) == len(hb)
        for ra, rb in zip(ha.reports, hb.reports):
            assert report_max_abs_diff(ra, rb) < TOL
        assert ha.summary().avg_sla == pytest.approx(
            hb.summary().avg_sla, abs=TOL)
        assert ha.summary().profit_eur == pytest.approx(
            hb.summary().profit_eur, abs=TOL)

    def test_scheduled_run_matches(self):
        """With a live scheduler both paths must keep choosing the same
        placements — the stepping outputs feed the next round's inputs."""
        config = ScenarioConfig(n_intervals=8, scale=3.0, seed=11)
        trace = multidc_trace(config)
        scheduler = oracle_scheduler()
        ha = run_simulation(multidc_system(config), trace,
                            scheduler=scheduler, batch=False)
        hb = run_simulation(multidc_system(config), trace,
                            scheduler=scheduler, batch=True)
        for ra, rb in zip(ha.reports, hb.reports):
            assert ra.placement == rb.placement
            assert report_max_abs_diff(ra, rb) < TOL


class TestFleetState:
    def test_cache_reused_across_steps(self):
        (sa, trace), _ = make_pair()
        deploy_round_robin(sa)
        sa.step(trace, 0)
        fleet = sa._fleet_cache
        assert isinstance(fleet, FleetState)
        sa.step(trace, 1)
        assert sa._fleet_cache is fleet

    def test_cache_invalidated_by_new_trace(self):
        (sa, trace), _ = make_pair()
        deploy_round_robin(sa)
        sa.step(trace, 0)
        first = sa._fleet_cache
        other = trace.slice(0, trace.n_intervals)
        sa.step(other, 0)
        assert sa._fleet_cache is not first

    def test_aggregates_match_loadvector_combine(self):
        (sa, trace), _ = make_pair(seed=21)
        fleet = FleetState(sa, trace)
        for j, vm_id in enumerate(fleet.vm_ids):
            for t in (0, trace.n_intervals - 1):
                agg = trace.aggregate_at(vm_id, t)
                assert fleet.agg_rps[j, t] == pytest.approx(agg.rps,
                                                            abs=1e-12)
                assert fleet.agg_bpr[j, t] == pytest.approx(
                    agg.bytes_per_req, abs=1e-12)
                assert fleet.agg_cpr[j, t] == pytest.approx(
                    agg.cpu_time_per_req, abs=1e-12)
