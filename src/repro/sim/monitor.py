"""Monitoring layer: noisy observations and training-data harvesting.

The paper (§IV.B) motivates learning over direct measurement: observed
resource usage is distorted by the observation window, virtualization
overhead and monitor interference (they saw monitors eat up to 50 % of an
Atom thread).  This module turns the simulator's exact interval reports into
*observations* with configurable multiplicative noise, and accumulates them
as flat samples from which :mod:`repro.ml.predictors` builds datasets.

Samples deliberately contain only information a real monitor could see:
load characteristics from the gateway, resource usage from the hypervisor,
response times from the gateway probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .multidc import IntervalReport

__all__ = ["VMSample", "PMSample", "Monitor"]


@dataclass(frozen=True)
class VMSample:
    """One monitored (VM, interval) observation."""

    t: int
    vm_id: str
    # Gateway-side load features.
    rps: float
    bytes_per_req: float
    cpu_time_per_req: float
    queue_len: float
    # Hypervisor-side observed usage (noisy).
    used_cpu: float
    used_mem: float
    net_in: float
    net_out: float
    # Placement context.
    given_cpu: float
    given_mem: float
    given_bw: float
    # Gateway-side outcome probes.
    rt: float
    sla: float


@dataclass(frozen=True)
class PMSample:
    """One monitored (PM, interval) observation."""

    t: int
    pm_id: str
    n_vms: int
    sum_vm_cpu: float
    pm_cpu: float


@dataclass
class Monitor:
    """Observation model plus sample store.

    Noise levels are relative standard deviations of multiplicative
    lognormal-ish noise (clipped normal); the defaults give Table-I-like
    correlations when the models are trained on a day of samples.
    """

    rng: np.random.Generator
    noise_cpu: float = 0.05
    noise_mem: float = 0.04
    noise_net: float = 0.10
    noise_rt: float = 0.08
    noise_sla: float = 0.02
    #: RT probes are heavy-tailed: occasionally a probe lands on a
    #: straggler (GC pause, disk hiccup, retransmit) and reads several
    #: times the true value.  The paper's Table I shows the signature — RT
    #: error std (1.279 s) dwarfs its MAE (0.234 s) — and it is why
    #: predicting the *bounded* SLA directly beats predicting RT (§IV.B).
    rt_outlier_prob: float = 0.06
    rt_outlier_max_scale: float = 8.0
    vm_samples: List[VMSample] = field(default_factory=list)
    pm_samples: List[PMSample] = field(default_factory=list)

    def _jitter(self, value: float, rel_sigma: float,
                lo: float = 0.0, hi: float = np.inf) -> float:
        """Multiplicative noise, clipped to a plausible range."""
        if value == 0.0 or rel_sigma <= 0.0:
            return float(np.clip(value, lo, hi))
        noisy = value * (1.0 + self.rng.normal(0.0, rel_sigma))
        return float(np.clip(noisy, lo, hi))

    def _observe_rt(self, rt: float) -> float:
        """Gaussian jitter plus occasional straggler outliers."""
        value = self._jitter(rt, self.noise_rt, 0.0)
        if (self.rt_outlier_prob > 0.0
                and self.rng.random() < self.rt_outlier_prob):
            value *= self.rng.uniform(2.0, self.rt_outlier_max_scale)
        return value

    def observe(self, report: IntervalReport) -> None:
        """Record noisy observations of one interval report.

        Works identically on reports from the scalar and the batch
        stepping path (:mod:`repro.sim.sharding`): both materialize the
        same per-VM/per-PM statistics in the same order, so harvested
        training sets — and the RNG draws behind their noise — do not
        depend on which path produced the run.
        """
        for vm_id, s in report.vms.items():
            if not s.pm_id:
                # Unplaced (e.g. orphaned by a failure): no hypervisor to
                # observe, and the degenerate zeros would pollute training.
                continue
            used_cpu = min(s.required.cpu, s.given.cpu)
            used_mem = min(s.required.mem, s.given.mem)
            # Split bw usage into in/out with the demand model's fixed
            # header/payload structure embedded in required.bw; observe the
            # true in/out streams separately at the vNIC.
            net_out = s.load.rps * s.load.bytes_per_req / 1024.0
            net_in = max(0.0, s.required.bw - net_out)
            bw_scale = (min(1.0, s.given.bw / s.required.bw)
                        if s.required.bw > 0 else 1.0)
            self.vm_samples.append(VMSample(
                t=report.t, vm_id=vm_id,
                rps=s.load.rps, bytes_per_req=s.load.bytes_per_req,
                cpu_time_per_req=s.load.cpu_time_per_req,
                queue_len=s.queue_len,
                used_cpu=self._jitter(used_cpu, self.noise_cpu, 0.0),
                used_mem=self._jitter(used_mem, self.noise_mem, 0.0),
                net_in=self._jitter(net_in * bw_scale, self.noise_net, 0.0),
                net_out=self._jitter(net_out * bw_scale, self.noise_net, 0.0),
                given_cpu=s.given.cpu, given_mem=s.given.mem,
                given_bw=s.given.bw,
                rt=self._observe_rt(s.process_rt_s),
                sla=self._jitter(s.sla_process, self.noise_sla, 0.0, 1.0)))
        for pm_id, p in report.pms.items():
            if not p.on:
                continue
            self.pm_samples.append(PMSample(
                t=report.t, pm_id=pm_id, n_vms=p.n_vms,
                sum_vm_cpu=self._jitter(p.sum_vm_cpu, self.noise_cpu, 0.0),
                pm_cpu=self._jitter(p.pm_cpu, self.noise_cpu, 0.0)))

    # -- matrix exports ------------------------------------------------------------
    def vm_matrix(self) -> Dict[str, np.ndarray]:
        """Column arrays over all VM samples (empty arrays when none)."""
        cols = ["t", "rps", "bytes_per_req", "cpu_time_per_req", "queue_len",
                "used_cpu", "used_mem", "net_in", "net_out",
                "given_cpu", "given_mem", "given_bw", "rt", "sla"]
        out = {c: np.array([getattr(s, c) for s in self.vm_samples],
                           dtype=float) for c in cols}
        out["vm_id"] = np.array([s.vm_id for s in self.vm_samples])
        return out

    def pm_matrix(self) -> Dict[str, np.ndarray]:
        cols = ["t", "n_vms", "sum_vm_cpu", "pm_cpu"]
        out = {c: np.array([getattr(s, c) for s in self.pm_samples],
                           dtype=float) for c in cols}
        out["pm_id"] = np.array([s.pm_id for s in self.pm_samples])
        return out

    def clear(self) -> None:
        self.vm_samples.clear()
        self.pm_samples.clear()

    def __len__(self) -> int:
        return len(self.vm_samples)
