"""Ground-truth resource-demand model.

Maps the load characteristics of a web-service — requests per second, average
bytes per request, average CPU time per request in a no-stress context (the
paper's ``Load[VM, Locs]`` features) — to the resources the VM *requires* to
serve that load: CPU %, memory MB, and network in/out KB/s.

This is the function the paper's predictors "Predict VM CPU / MEM / IN / OUT"
learn from monitored data; the simulator uses it as ground truth and the
monitoring layer exposes noisy observations of it.  The shapes are
deliberately piecewise-linear-ish (the paper reports piecewise-linear models
fit this domain well), with a mild saturation non-linearity on memory.

Also provides the PM-level CPU aggregation: total PM CPU exceeds the sum of
VM CPU because of virtualization/management overhead, growing with the number
of co-located VMs (paper §IV.B: "total CPU used by a PM typically exceeds the
sum of CPU power used by its VMs").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machines import Resources

__all__ = ["LoadVector", "DemandModel"]


@dataclass(frozen=True)
class LoadVector:
    """Aggregate load arriving at one VM during one interval.

    Attributes
    ----------
    rps:
        Requests per second (all sources combined).
    bytes_per_req:
        Mean response payload per request, bytes.
    cpu_time_per_req:
        Mean CPU seconds per request measured without contention.
    """

    rps: float
    bytes_per_req: float
    cpu_time_per_req: float

    def __post_init__(self) -> None:
        if self.rps < 0:
            raise ValueError("rps must be non-negative")
        if self.bytes_per_req < 0:
            raise ValueError("bytes_per_req must be non-negative")
        if self.cpu_time_per_req < 0:
            raise ValueError("cpu_time_per_req must be non-negative")

    def scaled(self, factor: float) -> "LoadVector":
        """Same request mix at ``factor`` times the arrival rate."""
        return LoadVector(self.rps * factor, self.bytes_per_req,
                          self.cpu_time_per_req)

    @staticmethod
    def combine(loads) -> "LoadVector":
        """Merge per-source loads into one aggregate (rate-weighted means)."""
        loads = list(loads)
        if not loads:
            return LoadVector(0.0, 0.0, 0.0)
        total_rps = sum(l.rps for l in loads)
        if total_rps <= 0:
            # Preserve the request mix of the first source for zero load.
            return LoadVector(0.0, loads[0].bytes_per_req,
                              loads[0].cpu_time_per_req)
        bytes_pr = sum(l.rps * l.bytes_per_req for l in loads) / total_rps
        cpu_pr = sum(l.rps * l.cpu_time_per_req for l in loads) / total_rps
        return LoadVector(total_rps, bytes_pr, cpu_pr)


@dataclass(frozen=True)
class DemandModel:
    """Parameters of the load -> required-resources mapping.

    Defaults are tuned so that the paper's reported observation ranges are
    reproduced on the canonical workload: VM CPU in [0, 400] %, VM MEM in
    [256, 1024] MB, VM IN in [0, 33] KB/s, VM OUT in [0, 141] KB/s.
    """

    # CPU: rps * cpu_time * 100% plus a small fixed per-request dispatch cost.
    cpu_dispatch_s: float = 0.004
    # Memory: base + per-concurrent-request buffers; saturates at mem_cap_mb.
    mem_per_rps_mb: float = 9.0
    mem_per_kb_payload_mb: float = 0.06
    mem_cap_mb: float = 1024.0
    # Network: request headers in, payload out.
    request_bytes_in: float = 420.0
    in_payload_fraction: float = 0.02
    # PM-level virtualization overhead: fixed per-VM + proportional.
    pm_overhead_per_vm_cpu: float = 4.0
    pm_overhead_fraction: float = 0.08

    # -- per-VM requirements -------------------------------------------------
    def required_cpu(self, rps, cpu_time_per_req):
        """Required CPU in percent-of-one-core (can exceed 100)."""
        rps = np.asarray(rps, dtype=float)
        t = np.asarray(cpu_time_per_req, dtype=float)
        out = rps * (t + self.cpu_dispatch_s) * 100.0
        return float(out) if out.ndim == 0 else out

    def required_mem(self, rps, bytes_per_req, base_mem_mb):
        """Required memory in MB: base footprint + request buffers.

        Linear in load with a soft cap at ``mem_cap_mb`` (a web stack stops
        allocating once its pools are full), keeping the bulk of the range
        linear so the paper's plain linear regression fits well.
        """
        rps = np.asarray(rps, dtype=float)
        payload_kb = np.asarray(bytes_per_req, dtype=float) / 1024.0
        linear = (np.asarray(base_mem_mb, dtype=float)
                  + self.mem_per_rps_mb * rps
                  + self.mem_per_kb_payload_mb * payload_kb * rps)
        out = np.minimum(linear, self.mem_cap_mb)
        return float(out) if out.ndim == 0 else out

    def required_net_in(self, rps, bytes_per_req):
        """Inbound bandwidth KB/s: headers plus upload fraction of payload."""
        rps = np.asarray(rps, dtype=float)
        b = np.asarray(bytes_per_req, dtype=float)
        out = rps * (self.request_bytes_in + self.in_payload_fraction * b) / 1024.0
        return float(out) if out.ndim == 0 else out

    def required_net_out(self, rps, bytes_per_req):
        """Outbound bandwidth KB/s: response payloads."""
        rps = np.asarray(rps, dtype=float)
        b = np.asarray(bytes_per_req, dtype=float)
        out = rps * b / 1024.0
        return float(out) if out.ndim == 0 else out

    def required_resources(self, load: LoadVector, base_mem_mb: float,
                           cpu_cap: float = 400.0) -> Resources:
        """Figure 3 constraint 5.1: ``ReqRes[i] = f(VM_i, Load[i,:])``."""
        cpu = min(self.required_cpu(load.rps, load.cpu_time_per_req), cpu_cap)
        mem = self.required_mem(load.rps, load.bytes_per_req, base_mem_mb)
        bw = (self.required_net_in(load.rps, load.bytes_per_req)
              + self.required_net_out(load.rps, load.bytes_per_req))
        return Resources(cpu=cpu, mem=mem, bw=bw)

    def required_batch(self, rps, bytes_per_req, cpu_time_per_req,
                       base_mem_mb, cpu_cap: float = 400.0):
        """Vectorized :meth:`required_resources` over aligned load arrays.

        All inputs broadcast; returns the ``(cpu, mem, bw)`` requirement
        arrays (percent-of-core, MB, KB/s).  Used by the batch stepping
        path (:mod:`repro.sim.sharding`) to evaluate constraint 5.1 for a
        whole datacenter shard in a handful of array operations; matches
        the scalar method element-for-element.
        """
        cpu = np.minimum(self.required_cpu(rps, cpu_time_per_req), cpu_cap)
        mem = self.required_mem(rps, bytes_per_req, base_mem_mb)
        bw = (self.required_net_in(rps, bytes_per_req)
              + self.required_net_out(rps, bytes_per_req))
        return cpu, mem, bw

    # -- PM-level aggregation -------------------------------------------------
    def pm_cpu(self, vm_cpus) -> float:
        """Total PM CPU given its VMs' CPU use, with hypervisor overhead.

        ``pm_cpu = sum(vm_cpu) * (1 + fraction) + per_vm * n_vms`` — the
        overhead the "Predict PM CPU" model learns.
        """
        vm_cpus = np.asarray(vm_cpus, dtype=float)
        if vm_cpus.size == 0:
            return 0.0
        return float(vm_cpus.sum() * (1.0 + self.pm_overhead_fraction)
                     + self.pm_overhead_per_vm_cpu * vm_cpus.size)

    def pm_cpu_batch(self, counts, sums) -> np.ndarray:
        """Vectorized :meth:`pm_cpu` from per-host (#VMs, sum CPU) pairs.

        Applies the same overhead formula per host; hosts with zero VMs
        report exactly 0 (matching the scalar early-return).
        """
        counts = np.asarray(counts, dtype=float)
        sums = np.asarray(sums, dtype=float)
        out = (sums * (1.0 + self.pm_overhead_fraction)
               + self.pm_overhead_per_vm_cpu * counts)
        return np.where(counts == 0, 0.0, out)
