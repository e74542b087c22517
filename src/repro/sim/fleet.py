"""Array snapshot of a (system, trace) pair for batch interval stepping.

:meth:`repro.sim.multidc.MultiDCSystem.step` historically walked per-VM and
per-PM Python loops — one demand-model call, one RT-model call and one SLA
aggregation per VM, every interval.  The batch stepping path replaces those
loops with array operations over aligned columns, and this module holds the
columns it reads:

* :class:`FleetState` snapshots everything *static* about a (system, trace)
  pair as aligned numpy arrays: stacked per-(VM, source) load series,
  precomputed per-VM aggregate loads for every interval, per-VM contract
  and cap columns, per-PM capacity columns, power-model groups, the
  per-DC PM ranges and the location x source latency matrix.  It is built
  once and cached on the system (:attr:`MultiDCSystem._fleet_cache`), so
  stepping a 96-interval run pays the snapshot cost once.
* The stepper itself is :class:`repro.sim.sharding.ShardedFleet`: it slices
  the snapshot into per-DC shards and plays each interval shard by shard,
  either building the full :class:`~repro.sim.multidc.IntervalReport`
  (``step(batch=True)``) or reducing straight to KPIs.

Contract (same style as PR 1's batch scoring): the scalar path
(``step(batch=False)``) stays the executable reference, and the batch path
agrees with it within 1e-9 on every ``IntervalReport`` field — including
every per-VM and per-PM statistic.  :func:`report_max_abs_diff` is the
metric the scalar-vs-batch differential tests under ``tests/sim/`` apply.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .demand import LoadVector
from .multidc import IntervalReport, MultiDCSystem
from ..workload.traces import WorkloadTrace

__all__ = ["FleetState", "report_max_abs_diff"]


def report_max_abs_diff(a: IntervalReport, b: IntervalReport) -> float:
    """Largest absolute difference between two reports, over every field.

    The equivalence metric of the batch-vs-scalar contract: walks every
    per-VM statistic (loads, demands, grants, response times, SLA terms,
    queue, revenue), every per-PM statistic, the profit breakdown and the
    scalar report attributes.  Structural mismatches — different VM/PM
    sets, placements, migration counts or categorical fields — raise
    ``ValueError`` rather than being folded into the metric.
    """
    if set(a.vms) != set(b.vms) or set(a.pms) != set(b.pms):
        raise ValueError("reports cover different VM/PM sets")
    if a.placement != b.placement:
        raise ValueError("reports have different placements")
    if len(a.migrations) != len(b.migrations):
        raise ValueError("reports have different migration counts")
    worst = max(abs(a.t - b.t), abs(a.interval_s - b.interval_s))
    for vm_id, va in a.vms.items():
        vb = b.vms[vm_id]
        if (va.pm_id, va.location) != (vb.pm_id, vb.location):
            raise ValueError(f"VM {vm_id!r} hosted differently")
        if set(va.rt_by_source) != set(vb.rt_by_source):
            raise ValueError(f"VM {vm_id!r} has different sources")
        for field in ("process_rt_s", "sla_process", "sla_raw", "sla",
                      "blackout_fraction", "queue_len", "revenue_eur"):
            worst = max(worst, abs(getattr(va, field) - getattr(vb, field)))
        for field in ("rps", "bytes_per_req", "cpu_time_per_req"):
            worst = max(worst,
                        abs(getattr(va.load, field)
                            - getattr(vb.load, field)))
        for field in ("cpu", "mem", "bw"):
            worst = max(worst, abs(getattr(va.required, field)
                                   - getattr(vb.required, field)),
                        abs(getattr(va.given, field)
                            - getattr(vb.given, field)))
        for src, rt in va.rt_by_source.items():
            worst = max(worst, abs(rt - vb.rt_by_source[src]))
    for pm_id, pa in a.pms.items():
        pb = b.pms[pm_id]
        if (pa.on, pa.n_vms, pa.location) != (pb.on, pb.n_vms, pb.location):
            raise ValueError(f"PM {pm_id!r} state differs")
        for field in ("sum_vm_cpu", "pm_cpu", "facility_watts",
                      "energy_wh", "energy_cost_eur"):
            worst = max(worst, abs(getattr(pa, field) - getattr(pb, field)))
    for field in ("revenue_eur", "migration_penalty_eur",
                  "energy_cost_eur"):
        worst = max(worst,
                    abs(getattr(a.profit, field) - getattr(b.profit, field)))
    return worst


def _cache_key(system: MultiDCSystem, trace: WorkloadTrace) -> tuple:
    """Shape of the (system, trace) pair a FleetState was built from.

    Trace identity is checked separately (``FleetState.trace is trace`` —
    the snapshot keeps a strong reference, so the id cannot be recycled
    while it is cached); the shape key catches growth of the same objects:
    series added to the trace, VMs/PMs added to the system.  In-place
    mutation of an existing series' arrays or of a VM's contract between
    steps is not detected (neither is supported elsewhere either — traces
    and contracts are treated as immutable during a run).
    """
    return (len(trace.series), trace.n_intervals,
            len(system.vms), len(system._pm_index))


class FleetState:
    """Aligned-array snapshot of a (system, trace) pair for batch stepping.

    Column ``j`` of every VM array describes ``vm_ids[j]`` (the system's
    VMs that have trace series, in system order); column ``i`` of every PM
    array describes ``pms[i]`` (datacenter order, as in
    :attr:`MultiDCSystem.pms`).  Time-varying state — placement, power
    flags, tariffs, pending blackouts — is deliberately *not* snapshotted;
    the stepper reads it from the live system every interval.
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace) -> None:
        #: The trace this snapshot was built from (kept alive so the cache
        #: check in :meth:`for_system` can rely on object identity).
        self.trace = trace
        self.key = _cache_key(system, trace)
        traced = {vm for vm, _src in trace.series}
        #: Every system VM gets a column; placed-but-untraced VMs carry
        #: all-zero load (the pinned semantic: no series means no traffic,
        #: matching the scheduling paths, which skip them so they stay
        #: put).  :attr:`traced_ids` / :attr:`traced_set` identify the VMs
        #: that actually have series.
        self.vm_ids: List[str] = list(system.vms)
        self.vm_index: Dict[str, int] = {vm: j
                                         for j, vm in enumerate(self.vm_ids)}
        self.traced_ids: List[str] = [vm for vm in self.vm_ids
                                      if vm in traced]
        self.traced_set = frozenset(self.traced_ids)
        n_vms = len(self.vm_ids)
        n_t = max(trace.n_intervals, 1)

        # -- per-(VM, source) series rows, in trace insertion order ---------
        series_vm: List[int] = []
        src_index: Dict[str, int] = {}
        series_src: List[int] = []
        rows_rps: List[np.ndarray] = []
        rows_bpr: List[np.ndarray] = []
        rows_cpr: List[np.ndarray] = []
        #: Per-VM [(series row, source name), ...] — the VM's sources in
        #: the same order ``trace.load_at`` yields them.
        self.vm_rows: List[List[Tuple[int, str]]] = [[] for _ in
                                                     range(n_vms)]
        for (vm, src), s in trace.series.items():
            j = self.vm_index.get(vm)
            if j is None:
                continue
            row = len(series_vm)
            series_vm.append(j)
            series_src.append(src_index.setdefault(src, len(src_index)))
            self.vm_rows[j].append((row, src))
            rows_rps.append(s.rps)
            rows_bpr.append(s.bytes_per_req)
            rows_cpr.append(s.cpu_time_per_req)
        self.series_vm = np.asarray(series_vm, dtype=np.intp)
        self.series_src = np.asarray(series_src, dtype=np.intp)
        if rows_rps:
            self.rps_rows = np.stack(rows_rps)
            self.bpr_rows = np.stack(rows_bpr)
            self.cpr_rows = np.stack(rows_cpr)
        else:
            self.rps_rows = np.zeros((0, n_t))
            self.bpr_rows = np.zeros((0, n_t))
            self.cpr_rows = np.zeros((0, n_t))

        # -- per-VM aggregate load for every interval ------------------------
        # Accumulation in series order matches LoadVector.combine's
        # sequential sums bit-for-bit.
        tot = np.zeros((n_vms, n_t))
        wsum_bpr = np.zeros((n_vms, n_t))
        wsum_cpr = np.zeros((n_vms, n_t))
        np.add.at(tot, self.series_vm, self.rps_rows)
        np.add.at(wsum_bpr, self.series_vm, self.rps_rows * self.bpr_rows)
        np.add.at(wsum_cpr, self.series_vm, self.rps_rows * self.cpr_rows)
        first_row = np.zeros(n_vms, dtype=np.intp)
        has_rows = np.zeros(n_vms, dtype=bool)
        for j in range(n_vms):
            if self.vm_rows[j]:
                first_row[j] = self.vm_rows[j][0][0]
                has_rows[j] = True
        self.traced_mask = has_rows
        safe_tot = np.where(tot > 0, tot, 1.0)
        # Zero-rate intervals keep the first source's request mix, exactly
        # like LoadVector.combine; untraced VMs have no sources at all and
        # aggregate to LoadVector(0, 0, 0), like LoadVector.combine([]).
        if rows_rps:
            fb_bpr = np.where(has_rows[:, None], self.bpr_rows[first_row],
                              0.0)
            fb_cpr = np.where(has_rows[:, None], self.cpr_rows[first_row],
                              0.0)
        else:
            fb_bpr = np.zeros((n_vms, n_t))
            fb_cpr = np.zeros((n_vms, n_t))
        self.agg_rps = tot
        self.agg_bpr = np.where(tot > 0, wsum_bpr / safe_tot, fb_bpr)
        self.agg_cpr = np.where(tot > 0, wsum_cpr / safe_tot, fb_cpr)

        # -- per-VM static columns ------------------------------------------
        vms = [system.vms[vm] for vm in self.vm_ids]
        # Traced VMs need a contract (as before); an untraced VM without
        # one only errors if it is ever *placed* — exactly when the
        # scalar loop would raise — so its columns stay zero and
        # ``no_contract`` lets the stepper mirror that KeyError.
        contracts = [system.contracts[vm] if has_rows[j]
                     else system.contracts.get(vm)
                     for j, vm in enumerate(self.vm_ids)]
        self.no_contract = np.array([c is None for c in contracts])
        self.base_mem = np.array([vm.base_mem_mb for vm in vms])
        self.vm_cap_cpu = np.array([vm.max_resources.cpu for vm in vms])
        self.vm_cap_mem = np.array([vm.max_resources.mem for vm in vms])
        self.vm_cap_bw = np.array([vm.max_resources.bw for vm in vms])
        self.price = np.array([0.0 if c is None else c.price_eur_per_hour
                               for c in contracts])
        self.rt0 = np.array([0.0 if c is None else c.rt0
                             for c in contracts])
        self.alpha = np.array([0.0 if c is None else c.alpha
                               for c in contracts])

        # -- per-PM static columns ------------------------------------------
        self.locations: List[str] = [dc.location
                                     for dc in system.datacenters]
        self.pms = [pm for dc in system.datacenters for pm in dc.pms]
        #: Per-DC contiguous ``[lo, hi)`` slices of the PM arrays (PMs are
        #: laid out in datacenter order) — the shard boundaries
        #: :mod:`repro.sim.sharding` slices on.  A zero-PM DC contributes an
        #: empty range.
        ranges: List[Tuple[int, int]] = []
        lo = 0
        for dc in system.datacenters:
            ranges.append((lo, lo + len(dc.pms)))
            lo += len(dc.pms)
        self.dc_pm_ranges = ranges
        self.pm_cap_cpu = np.array([pm.capacity.cpu for pm in self.pms])
        self.pm_cap_mem = np.array([pm.capacity.mem for pm in self.pms])
        self.pm_cap_bw = np.array([pm.capacity.bw for pm in self.pms])
        # Few distinct power curves per fleet: group PM indices so the
        # piecewise interpolation vectorizes per curve (same trick as
        # repro.core.model.HostBatch).
        by_model: Dict[object, List[int]] = {}
        for i, pm in enumerate(self.pms):
            by_model.setdefault(pm.power_model, []).append(i)
        self.power_groups = [(model, np.asarray(ix, dtype=np.intp))
                             for model, ix in by_model.items()]

        # -- location x source transport latency, seconds -------------------
        # Pairs the network cannot resolve become NaN; the scalar path only
        # ever looks up pairs that actually occur, so the batch path raises
        # lazily — when a *placed* VM needs an unknown pair.
        self.sources = list(src_index)
        lat = np.full((max(len(self.locations), 1),
                       max(len(self.sources), 1)), np.nan)
        for li, loc in enumerate(self.locations):
            for si, src in enumerate(self.sources):
                try:
                    lat[li, si] = (
                        system.network.host_to_source_ms(loc, src) / 1000.0)
                except KeyError:
                    pass
        self.lat_s = lat

        # -- publish read-only ----------------------------------------------
        # The snapshot is shared: the per-DC stepper and the round-scoring
        # path both read these arrays (and hand out views, e.g.
        # aggregate_columns), so corruption-by-alias must fail loudly
        # rather than skew later intervals.  Consumers that need to write
        # (fancy-indexed gathers) get fresh writable copies anyway.
        for arr in (self.series_vm, self.series_src, self.rps_rows,
                    self.bpr_rows, self.cpr_rows, self.traced_mask,
                    self.agg_rps, self.agg_bpr, self.agg_cpr,
                    self.no_contract, self.base_mem, self.vm_cap_cpu,
                    self.vm_cap_mem, self.vm_cap_bw, self.price,
                    self.rt0, self.alpha, self.pm_cap_cpu,
                    self.pm_cap_mem, self.pm_cap_bw, self.lat_s):
            arr.setflags(write=False)
        for _model, ix in self.power_groups:
            ix.setflags(write=False)

    # -- round-snapshot accessors (used by the scheduling path) --------------
    def aggregate_load_at(self, vm_id: str, t: int) -> LoadVector:
        """The VM's all-sources aggregate load at interval ``t``, O(1).

        Reads the precomputed per-interval aggregate columns, whose
        accumulation order matches :meth:`LoadVector.combine` bit-for-bit —
        so schedulers can skip re-merging per-source loads per round.
        """
        j = self.vm_index[vm_id]
        return LoadVector(rps=float(self.agg_rps[j, t]),
                          bytes_per_req=float(self.agg_bpr[j, t]),
                          cpu_time_per_req=float(self.agg_cpr[j, t]))

    def loads_at(self, vm_id: str, t: int) -> Dict[str, LoadVector]:
        """Per-source loads of one VM at interval ``t``.

        Same contents and source order as
        :meth:`~repro.workload.traces.WorkloadTrace.load_at`, served from
        the stacked series rows (O(own sources), no trace walk).
        """
        j = self.vm_index[vm_id]
        return {src: LoadVector(rps=float(self.rps_rows[row, t]),
                                bytes_per_req=float(self.bpr_rows[row, t]),
                                cpu_time_per_req=float(self.cpr_rows[row, t]))
                for row, src in self.vm_rows[j]}

    def aggregate_columns(self, t: int):
        """``(rps, bytes_per_req, cpu_time_per_req)`` columns at ``t``.

        One entry per VM of :attr:`vm_ids`; the inputs batch demand
        estimation feeds on (views into the snapshot — do not mutate).
        """
        return self.agg_rps[:, t], self.agg_bpr[:, t], self.agg_cpr[:, t]

    @staticmethod
    def for_system(system: MultiDCSystem,
                   trace: WorkloadTrace) -> "FleetState":
        """The cached snapshot for this pair, rebuilt when stale."""
        cached = system._fleet_cache
        if (isinstance(cached, FleetState) and cached.trace is trace
                and cached.key == _cache_key(system, trace)):
            return cached
        fleet = FleetState(system, trace)
        system._fleet_cache = fleet
        return fleet

