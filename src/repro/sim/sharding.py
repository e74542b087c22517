"""Per-DC sharded interval stepping behind a :class:`ShardedFleet` facade.

This is the repository's one array stepper: ``MultiDCSystem.step(batch=True)``
and the streamed KPI runs both play intervals through it.  It splits the
step along the natural physics boundary — **nothing in an interval couples
VMs across datacenters** (grants are per-host, response times per VM, power
per PM, tariffs per DC) — into per-DC shards:

* :class:`FleetShard` is a contiguous ``[lo, hi)`` PM slice of the global
  :class:`~repro.sim.fleet.FleetState` (PM arrays are laid out in
  datacenter order, so shard slicing is free).
* :meth:`ShardedFleet.step_report` computes each shard independently and
  merges the shard-local statistics into one
  :class:`~repro.sim.multidc.IntervalReport` — the report mode, pinned
  within 1e-9 of the scalar reference (``step(batch=False)``) by
  differential tests.
* :meth:`ShardedFleet.step_metrics` is the bounded-memory mode: it performs
  the same per-shard physics but reduces each shard straight to a
  constant-size :class:`ShardMetrics` record and returns one
  :class:`~repro.sim.metrics.IntervalMetrics` — no per-VM boxing at all.
  Combined with a disk :class:`~repro.sim.metrics.MetricsSink`, peak memory
  stays flat in horizon length, where a kept report holds O(n_vms) boxed
  per-VM statistics per interval.

Both modes preserve the stepping side-effects schedulers depend on
(``pm.granted`` swaps, ``system.last_demands``, blackout consumption), so a
scheduler sees an identical system afterwards.

Cross-shard conservation laws (global KPIs equal the sum of shard KPIs; no
VM in two shards) are checked by :mod:`repro.arena.invariants`; the
per-shard reductions of the last step are kept on
:attr:`ShardedFleet.last_shard_metrics` / :attr:`ShardedFleet.last_unplaced`
for exactly that audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .demand import LoadVector
from .fleet import FleetState
from .machines import Resources
from .metrics import IntervalMetrics
from .multidc import (IntervalReport, MigrationEvent, MultiDCSystem,
                      PMIntervalStats, VMIntervalStats,
                      proportional_allocation_batch)
from ..core.profit import ProfitBreakdown, migration_penalty_eur
from ..core.sla import sla_fulfillment
from ..workload.traces import WorkloadTrace

__all__ = ["FleetShard", "ShardMetrics", "ShardedFleet"]

#: Shared empty grant for unplaced VMs (Resources is frozen, safe to share).
_NO_GRANT = Resources()


class FleetShard:
    """One datacenter's contiguous PM slice of the global fleet arrays."""

    def __init__(self, fleet: FleetState, dc_index: int,
                 lo: int, hi: int) -> None:
        self.dc_index = dc_index
        self.location = fleet.locations[dc_index]
        self.lo = lo
        self.hi = hi
        self.n_pms = hi - lo
        # Power-curve groups restricted to this shard, in local PM indices.
        self.power_groups = []
        for model, ix in fleet.power_groups:
            sub = ix[(ix >= lo) & (ix < hi)] - lo
            if len(sub):
                # Shared across every interval of the run: read-only,
                # like the fleet snapshot arrays they were sliced from.
                sub.setflags(write=False)
                self.power_groups.append((model, sub))


@dataclass(frozen=True)
class ShardMetrics:
    """One shard's constant-size reduction of one interval.

    The cross-shard conservation laws are phrased over these records:
    every additive field sums (within float tolerance) to the global
    KPI of the same interval.
    """

    location: str
    n_pms: int
    n_placed: int           # VMs placed on this shard's PMs
    sla_sum: float          # sum of per-VM SLA over placed VMs
    rps_sum: float          # sum of aggregate rps over placed VMs
    revenue_eur: float
    migration_penalty_eur: float
    energy_cost_eur: float
    watts_sum: float
    energy_wh_sum: float
    n_pms_on: int


class ShardedFleet:
    """Facade: per-DC shards over one cached :class:`FleetState`.

    Build via :meth:`for_system` (cached on the system like the fleet
    snapshot itself).  Shards are views — no VM or PM data is copied.
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace) -> None:
        self.system = system
        self.fleet = FleetState.for_system(system, trace)
        self.shards: List[FleetShard] = [
            FleetShard(self.fleet, di, lo, hi)
            for di, (lo, hi) in enumerate(self.fleet.dc_pm_ranges)]
        #: Per-shard reductions of the last step (either mode), for the
        #: cross-shard conservation audit.
        self.last_shard_metrics: List[ShardMetrics] = []
        #: The unplaced-but-traced remainder of the last step: VMs in no
        #: shard (SLA 0, no revenue), folded into mean SLA and total rps.
        self.last_unplaced: Optional[ShardMetrics] = None

    @staticmethod
    def for_system(system: MultiDCSystem,
                   trace: WorkloadTrace) -> "ShardedFleet":
        """The cached facade for this pair, rebuilt when stale."""
        fleet = FleetState.for_system(system, trace)
        cached = system._sharded_cache
        if isinstance(cached, ShardedFleet) and cached.fleet is fleet:
            return cached
        sharded = ShardedFleet(system, trace)
        system._sharded_cache = sharded
        return sharded

    # -- audit accessors -------------------------------------------------------
    def shard_vm_ids(self) -> List[List[str]]:
        """Live per-shard VM id lists (walked from the placement state)."""
        fleet = self.fleet
        return [[vm_id for pm in fleet.pms[s.lo:s.hi] for vm_id in pm.vm_ids]
                for s in self.shards]

    # -- stepping --------------------------------------------------------------
    def step_report(self, trace: WorkloadTrace, t: int,
                    migrations: Optional[List[MigrationEvent]] = None
                    ) -> IntervalReport:
        """Sharded step, full report (``MultiDCSystem.step(batch=True)``)."""
        return self._step(trace, t, migrations, build_report=True)

    def step_metrics(self, trace: WorkloadTrace, t: int,
                     migrations: Optional[List[MigrationEvent]] = None
                     ) -> IntervalMetrics:
        """Sharded step, KPI-only (the bounded-memory mode)."""
        return self._step(trace, t, migrations, build_report=False)

    def _step(self, trace: WorkloadTrace, t: int,
              migrations: Optional[List[MigrationEvent]],
              build_report: bool):
        system = self.system
        fleet = self.fleet
        if fleet is not FleetState.for_system(system, trace):
            # Trace or topology changed under us: rebuild and retry once.
            fresh = ShardedFleet.for_system(system, trace)
            return fresh._step(trace, t, migrations, build_report)
        interval_s = trace.interval_s
        hours = interval_s / 3600.0
        migrations = migrations or []
        n_vms = len(fleet.vm_ids)
        vm_index = fleet.vm_index

        # Pass A - placement walk per shard, in datacenter PM order (the
        # scalar reference's order).
        placed_mask = np.zeros(n_vms, dtype=bool)
        vm_shard = np.full(n_vms, -1, dtype=np.intp)
        shard_placed: List[np.ndarray] = []
        shard_seg: List[np.ndarray] = []
        shard_vm_lists: List[List[Optional[List[str]]]] = []
        for si, shard in enumerate(self.shards):
            placed: List[int] = []
            seg: List[int] = []
            pm_vm_lists: List[Optional[List[str]]] = [None] * shard.n_pms
            for k in range(shard.n_pms):
                pm = fleet.pms[shard.lo + k]
                ids = pm.vm_ids
                if not ids:
                    continue
                pm_vm_lists[k] = ids
                for vm_id in ids:
                    j = vm_index.get(vm_id)
                    if j is None:
                        raise KeyError(
                            f"unknown VM {vm_id!r} on host {pm.pm_id!r}")
                    if fleet.no_contract[j]:
                        raise KeyError(vm_id)
                    placed.append(j)
                    seg.append(k)
            placed_idx = np.asarray(placed, dtype=np.intp)
            placed_mask[placed_idx] = True
            vm_shard[placed_idx] = si
            shard_placed.append(placed_idx)
            shard_seg.append(np.asarray(seg, dtype=np.intp))
            shard_vm_lists.append(pm_vm_lists)

        # Blackouts: consume pending seconds for placed VMs only (orphans
        # keep theirs until re-placed), attributing the penalty to the
        # consuming VM's shard.
        frac = np.zeros(n_vms)
        shard_penalty = np.zeros(max(len(self.shards), 1))
        pending = system._pending_blackout_s
        if pending:
            rate = system.prices.migration_penalty_rate
            for vm_id in list(pending):
                j = vm_index.get(vm_id)
                if j is None or not placed_mask[j]:
                    continue
                blackout_s = pending.pop(vm_id)
                f = min(1.0, blackout_s / interval_s)
                frac[j] = f
                if f > 0.0:
                    shard_penalty[vm_shard[j]] += migration_penalty_eur(
                        blackout_s, rate)

        # Shared inputs and scatter buffers (reused across shards).
        dm = system.demand_model
        rtm = system.rt_model
        rt_cap = rtm.rt_cap_s
        rps = fleet.agg_rps[:, t]
        bpr = fleet.agg_bpr[:, t]
        cpr = fleet.agg_cpr[:, t]
        series_vm = fleet.series_vm
        proc_col = np.empty(n_vms)
        in_shard = np.zeros(n_vms, dtype=bool)
        if build_report:
            # Fleet-wide columns the report is boxed from after the shard
            # loop, each filled shard by shard (per-VM, and per series row
            # for the per-source response times).
            rt_rows = np.empty(len(series_vm))
            sla_process_col = np.empty(n_vms)
            sla_raw_col = np.empty(n_vms)
            sla_col = np.empty(n_vms)
            queue_col = np.empty(n_vms)
            revenue_col = np.empty(n_vms)

        last_demands: Dict[str, Resources] = {}
        shard_metrics: List[ShardMetrics] = []
        vm_stats: Dict[str, VMIntervalStats] = {}
        pm_stats: Dict[str, PMIntervalStats] = {}

        # Pass B - per-shard physics + reduction.
        for si, shard in enumerate(self.shards):
            placed_idx = shard_placed[si]
            seg_arr = shard_seg[si]
            lo, hi = shard.lo, shard.hi
            n_local = shard.n_pms

            # Demands (constraint 5.1), deliberately uncapped so overload
            # registers as stress > 1 — as in the scalar reference.
            req_cpu, req_mem, req_bw = dm.required_batch(
                rps[placed_idx], bpr[placed_idx], cpr[placed_idx],
                fleet.base_mem[placed_idx], cpu_cap=float("inf"))

            # Grants (constraint 5.2): segmented per-host sharing; hosts
            # outside the shard cannot interact by construction.
            g_cpu, g_mem, g_bw = proportional_allocation_batch(
                fleet.pm_cap_cpu[lo:hi], fleet.pm_cap_mem[lo:hi],
                fleet.pm_cap_bw[lo:hi], seg_arr,
                req_cpu, req_mem, req_bw,
                c_cpu=fleet.vm_cap_cpu[placed_idx],
                c_mem=fleet.vm_cap_mem[placed_idx],
                c_bw=fleet.vm_cap_bw[placed_idx],
                n_hosts=n_local)
            used_cpu = np.minimum(req_cpu, g_cpu)

            # Response times (6.1) and per-source SLA (6.2-7).
            rps_p = rps[placed_idx]
            proc_rt_p = rtm.process_rt_arrays(
                cpr[placed_idx], rps_p, req_cpu, g_cpu, req_mem, g_mem,
                req_bw, g_bw)
            proc_col[placed_idx] = proc_rt_p
            in_shard[:] = False
            in_shard[placed_idx] = True
            row_idx = np.flatnonzero(in_shard[series_vm])
            svm = series_vm[row_idx]
            ssrc = fleet.series_src[row_idx]
            lat_vals = fleet.lat_s[shard.dc_index, ssrc]
            bad = np.isnan(lat_vals)
            if bad.any():
                r = int(np.flatnonzero(bad)[0])
                raise KeyError(f"unknown location: no latency between host "
                               f"{shard.location!r} and source "
                               f"{fleet.sources[ssrc[r]]!r}")
            rt_vals = proc_col[svm] + lat_vals
            rps_row_vals = fleet.rps_rows[row_idx, t]
            f_vals = sla_fulfillment(rt_vals, fleet.rt0[svm],
                                     fleet.alpha[svm])
            weight = np.bincount(svm, weights=rps_row_vals, minlength=n_vms)
            scored = np.bincount(svm, weights=f_vals * rps_row_vals,
                                 minlength=n_vms)
            w_p = weight[placed_idx]
            s_p = scored[placed_idx]
            sla_raw_p = np.where(w_p > 0,
                                 s_p / np.where(w_p > 0, w_p, 1.0), 1.0)
            sla_p = sla_raw_p * (1.0 - frac[placed_idx])
            if np.any(sla_p < 0.0) or np.any(sla_p > 1.0 + 1e-9):
                raise ValueError("SLA fulfillment outside [0, 1]")
            revenue_p = fleet.price[placed_idx] * np.minimum(sla_p, 1.0) * hours

            # Power and energy cost (constraint 3) for the shard's PMs.
            counts = np.bincount(seg_arr, minlength=n_local)
            cpu_sums = np.bincount(seg_arr, weights=used_cpu,
                                   minlength=n_local)
            pm_cpu = np.minimum(dm.pm_cpu_batch(counts, cpu_sums),
                                fleet.pm_cap_cpu[lo:hi])
            on = np.fromiter((pm.on for pm in fleet.pms[lo:hi]),
                             dtype=bool, count=n_local)
            watts = np.empty(n_local)
            for model, ix in shard.power_groups:
                watts[ix] = model.facility_watts(pm_cpu[ix])
            watts = np.where(on, watts, 0.0)
            energy_wh = watts * interval_s / 3600.0
            price_kwh = system.datacenters[shard.dc_index].energy_price_eur_kwh
            energy_cost = energy_wh / 1000.0 * price_kwh

            # Write state back: granted swaps + observed demands, exactly
            # like the scalar reference.
            g_cpu_l, g_mem_l, g_bw_l = (g_cpu.tolist(), g_mem.tolist(),
                                        g_bw.tolist())
            req_cpu_l, req_mem_l, req_bw_l = (req_cpu.tolist(),
                                              req_mem.tolist(),
                                              req_bw.tolist())
            pos = 0
            for k, ids in enumerate(shard_vm_lists[si]):
                if ids is None:
                    continue
                granted: Dict[str, Resources] = {}
                for vm_id in ids:
                    granted[vm_id] = Resources(g_cpu_l[pos], g_mem_l[pos],
                                               g_bw_l[pos])
                    last_demands[vm_id] = Resources(
                        req_cpu_l[pos], req_mem_l[pos], req_bw_l[pos])
                    pos += 1
                fleet.pms[lo + k].granted = granted
            if build_report:
                rt_rows[row_idx] = rt_vals
                sla_process_col[placed_idx] = sla_fulfillment(
                    proc_rt_p, fleet.rt0[placed_idx],
                    fleet.alpha[placed_idx])
                sla_raw_col[placed_idx] = sla_raw_p
                sla_col[placed_idx] = sla_p
                queue_col[placed_idx] = rtm.queue_length_arrays(
                    rps_p, req_cpu, g_cpu, interval_s)
                revenue_col[placed_idx] = revenue_p
                on_l = on.tolist()
                counts_l, sums_l = counts.tolist(), cpu_sums.tolist()
                pm_cpu_l, watts_l = pm_cpu.tolist(), watts.tolist()
                wh_l, cost_l = energy_wh.tolist(), energy_cost.tolist()
                for k in range(n_local):
                    pm = fleet.pms[lo + k]
                    pm_stats[pm.pm_id] = PMIntervalStats(
                        pm_id=pm.pm_id, location=shard.location,
                        on=on_l[k], n_vms=counts_l[k],
                        sum_vm_cpu=sums_l[k], pm_cpu=pm_cpu_l[k],
                        facility_watts=watts_l[k], energy_wh=wh_l[k],
                        energy_cost_eur=cost_l[k])

            shard_metrics.append(ShardMetrics(
                location=shard.location, n_pms=n_local,
                n_placed=len(placed_idx),
                sla_sum=float(sla_p.sum()),
                rps_sum=float(rps_p.sum()),
                revenue_eur=float(revenue_p.sum()),
                migration_penalty_eur=float(shard_penalty[si]),
                energy_cost_eur=float(energy_cost.sum()),
                watts_sum=float(watts.sum()),
                energy_wh_sum=float(energy_wh.sum()),
                n_pms_on=int(on.sum())))

        system.last_demands = last_demands

        # The unplaced-but-traced remainder: SLA 0, no revenue, but its
        # load exists and is folded into mean SLA and total rps.
        unplaced_idx = np.flatnonzero(fleet.traced_mask & ~placed_mask)
        self.last_shard_metrics = shard_metrics
        self.last_unplaced = ShardMetrics(
            location="<unplaced>", n_pms=0, n_placed=0,
            sla_sum=0.0, rps_sum=float(rps[unplaced_idx].sum()),
            revenue_eur=0.0, migration_penalty_eur=0.0,
            energy_cost_eur=0.0, watts_sum=0.0, energy_wh_sum=0.0,
            n_pms_on=0) if len(unplaced_idx) else None

        revenue_total = sum(s.revenue_eur for s in shard_metrics)
        penalty_total = sum(s.migration_penalty_eur for s in shard_metrics)
        cost_total = sum(s.energy_cost_eur for s in shard_metrics)

        if build_report:
            # Pass C - box the per-VM statistics once, straight from the
            # fleet-wide columns, in placement-walk order.
            vm_rows = fleet.vm_rows
            rt_l = rt_rows.tolist()
            rps_l, bpr_l, cpr_l = rps.tolist(), bpr.tolist(), cpr.tolist()
            proc_l, frac_l = proc_col.tolist(), frac.tolist()
            sla_process_l, sla_raw_l, sla_l = (sla_process_col.tolist(),
                                               sla_raw_col.tolist(),
                                               sla_col.tolist())
            queue_l, revenue_l = queue_col.tolist(), revenue_col.tolist()
            for si, shard in enumerate(self.shards):
                for k, ids in enumerate(shard_vm_lists[si]):
                    if ids is None:
                        continue
                    pm = fleet.pms[shard.lo + k]
                    granted = pm.granted
                    for vm_id in ids:
                        j = vm_index[vm_id]
                        vm_stats[vm_id] = VMIntervalStats(
                            vm_id=vm_id, pm_id=pm.pm_id,
                            location=shard.location,
                            load=LoadVector(rps_l[j], bpr_l[j], cpr_l[j]),
                            required=last_demands[vm_id],
                            given=granted[vm_id],
                            process_rt_s=proc_l[j],
                            rt_by_source={src: rt_l[r]
                                          for r, src in vm_rows[j]},
                            sla_process=sla_process_l[j],
                            sla_raw=sla_raw_l[j], sla=sla_l[j],
                            blackout_fraction=frac_l[j],
                            queue_len=queue_l[j], revenue_eur=revenue_l[j])

            # Unplaced-but-traced VMs: fully unavailable, SLA 0, no
            # revenue.  Unplaced *and* untraced VMs are invisible, as in
            # the scalar reference.
            if len(unplaced_idx):
                u_cpu, u_mem, u_bw = dm.required_batch(
                    rps[unplaced_idx], bpr[unplaced_idx], cpr[unplaced_idx],
                    fleet.base_mem[unplaced_idx], cpu_cap=float("inf"))
                u_cpu_l, u_mem_l, u_bw_l = (u_cpu.tolist(), u_mem.tolist(),
                                            u_bw.tolist())
                for p, j in enumerate(unplaced_idx.tolist()):
                    vm_id = fleet.vm_ids[j]
                    vm_stats[vm_id] = VMIntervalStats(
                        vm_id=vm_id, pm_id="", location="",
                        load=LoadVector(rps_l[j], bpr_l[j], cpr_l[j]),
                        required=Resources(u_cpu_l[p], u_mem_l[p],
                                           u_bw_l[p]),
                        given=_NO_GRANT, process_rt_s=rt_cap,
                        rt_by_source={src: rt_cap
                                      for _r, src in vm_rows[j]},
                        sla_process=0.0, sla_raw=0.0, sla=0.0,
                        blackout_fraction=1.0, queue_len=0.0,
                        revenue_eur=0.0)
            profit = ProfitBreakdown(
                revenue_eur=revenue_total,
                migration_penalty_eur=penalty_total,
                energy_cost_eur=cost_total)
            return IntervalReport(t=t, interval_s=interval_s, vms=vm_stats,
                                  pms=pm_stats, migrations=list(migrations),
                                  profit=profit,
                                  placement=system.placement())

        n_reported = (sum(s.n_placed for s in shard_metrics)
                      + len(unplaced_idx))
        sla_total = sum(s.sla_sum for s in shard_metrics)
        rps_total = (sum(s.rps_sum for s in shard_metrics)
                     + float(rps[unplaced_idx].sum()))
        return IntervalMetrics(
            t=t, interval_s=interval_s,
            mean_sla=(sla_total / n_reported if n_reported else 1.0),
            total_watts=sum(s.watts_sum for s in shard_metrics),
            total_energy_wh=sum(s.energy_wh_sum for s in shard_metrics),
            n_pms_on=sum(s.n_pms_on for s in shard_metrics),
            n_migrations=len(migrations),
            n_inter_dc_migrations=sum(1 for m in migrations if m.inter_dc),
            revenue_eur=revenue_total,
            migration_penalty_eur=penalty_total,
            energy_cost_eur=cost_total,
            profit_eur=revenue_total - penalty_total - cost_total,
            total_rps=rps_total)
