"""Multi-datacenter simulator substrate.

Sub-modules:

* :mod:`~repro.sim.power` — non-linear PM power curves (Atom 4-core).
* :mod:`~repro.sim.machines` — :class:`Resources`, :class:`VirtualMachine`,
  :class:`PhysicalMachine`.
* :mod:`~repro.sim.demand` — ground-truth load -> required-resources mapping.
* :mod:`~repro.sim.rtmodel` — ground-truth response-time model.
* :mod:`~repro.sim.network` — latency matrices (Table II), migration timing.
* :mod:`~repro.sim.datacenter` — :class:`DataCenter` and Table II tariffs.
* :mod:`~repro.sim.multidc` — :class:`MultiDCSystem` global state machine.
* :mod:`~repro.sim.fleet` — array snapshot for batch stepping
  (:class:`FleetState`).
* :mod:`~repro.sim.sharding` — the per-DC array stepper
  (:class:`~repro.sim.sharding.ShardedFleet`).
* :mod:`~repro.sim.monitor` — noisy observation layer (training data).
* :mod:`~repro.sim.engine` — interval loop, :class:`RunHistory`.
"""

from .datacenter import PAPER_ENERGY_PRICES, DataCenter, build_datacenter
from .demand import DemandModel, LoadVector
from .engine import RunHistory, RunSummary, run_simulation
from .failures import FailureEvent, FailureInjector
from .fleet import FleetState
from .machines import PhysicalMachine, Resources, VirtualMachine
from .monitor import Monitor, PMSample, VMSample
from .multidc import (IntervalReport, MigrationEvent, MultiDCSystem,
                      PMIntervalStats, VMIntervalStats,
                      proportional_allocation,
                      proportional_allocation_batch)
from .network import (PAPER_BANDWIDTH_GBPS, PAPER_LATENCIES_MS,
                      PAPER_LOCATIONS, LatencyMatrix, NetworkModel,
                      paper_latency_matrix, paper_network_model)
from .power import (ATOM_CORE_WATTS, COOLING_FACTOR, PowerModel,
                    atom_power_model, linear_power_model)
from .rtmodel import ResponseTimeModel
from .tariffs import (TariffSchedule, flat_tariff, solar_tariff,
                      time_of_use_tariff)
from .validation import (InvariantViolation, assert_system_invariants,
                         check_system_invariants)

__all__ = [
    "PAPER_ENERGY_PRICES", "DataCenter", "build_datacenter",
    "DemandModel", "LoadVector",
    "RunHistory", "RunSummary", "run_simulation",
    "FailureEvent", "FailureInjector",
    "FleetState",
    "PhysicalMachine", "Resources", "VirtualMachine",
    "Monitor", "PMSample", "VMSample",
    "IntervalReport", "MigrationEvent", "MultiDCSystem",
    "PMIntervalStats", "VMIntervalStats", "proportional_allocation",
    "proportional_allocation_batch",
    "PAPER_BANDWIDTH_GBPS", "PAPER_LATENCIES_MS", "PAPER_LOCATIONS",
    "LatencyMatrix", "NetworkModel", "paper_latency_matrix",
    "paper_network_model",
    "ATOM_CORE_WATTS", "COOLING_FACTOR", "PowerModel", "atom_power_model",
    "linear_power_model",
    "ResponseTimeModel",
    "TariffSchedule", "flat_tariff", "solar_tariff", "time_of_use_tariff",
    "InvariantViolation", "assert_system_invariants",
    "check_system_invariants",
]
