"""Batch/scalar parity edge cases in Best-Fit found by the PR-3 audit.

Two bugs are pinned here:

* the batch packing loop silently assigned host 0 via ``np.argmax`` when
  every candidate scored ``-inf``, where the scalar reference raises
  ``"no feasible host"``;
* ``build_problem`` crashed with ``KeyError`` on a placed-but-untraced VM
  (both stepping paths deliberately skip untraced VMs; the scheduler now
  does the same).
"""

import numpy as np
import pytest

from repro.core.bestfit import (SchedulingRound, build_problem,
                                descending_best_fit)
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.model import HostView, SchedulingProblem, VMRequest
from repro.core.profit import PriceBook
from repro.core.sla import SLAContract
from repro.sim.demand import LoadVector
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.network import paper_network_model
from repro.sim.power import atom_power_model
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)


def hostile_problem(n_hosts=3, current_pm=None, current_location=None):
    """Every placement costs infinite energy -> every profit is -inf."""
    hosts = [HostView(pm_id=f"pm{i}", location="BCN",
                      capacity=Resources(cpu=400.0, mem=4096.0,
                                         bw=125_000.0),
                      power_model=atom_power_model(),
                      energy_price_eur_kwh=float("inf"))
             for i in range(n_hosts)]
    request = VMRequest(
        vm=VirtualMachine(vm_id="vm0"), contract=SLAContract(),
        loads={"BCN": LoadVector(10.0, 4000.0, 0.02)},
        current_pm=current_pm, current_location=current_location)
    return SchedulingProblem(
        requests=[request], hosts=hosts, network=paper_network_model(),
        prices=PriceBook(), estimator=OracleEstimator())


class TestAllInfRound:
    def test_scalar_raises_without_current_host(self):
        with pytest.raises(RuntimeError, match="no feasible host"):
            descending_best_fit(hostile_problem(), batch=False)

    def test_batch_matches_scalar_raise(self):
        with pytest.raises(RuntimeError, match="no feasible host"):
            descending_best_fit(hostile_problem(), batch=True)

    def test_both_paths_stay_put_with_current_host(self):
        batch = descending_best_fit(
            hostile_problem(current_pm="pm1", current_location="BCN"),
            batch=True)
        scalar = descending_best_fit(
            hostile_problem(current_pm="pm1", current_location="BCN"),
            batch=False)
        assert batch.assignment == scalar.assignment == {"vm0": "pm1"}

    def test_scores_really_were_all_inf(self):
        problem = hostile_problem()
        from repro.core.model import evaluate_candidates
        scores = evaluate_candidates(problem, problem.requests[0],
                                     problem.hosts).profit_eur
        assert np.all(np.isneginf(scores))


class TestUntracedVMs:
    @pytest.fixture()
    def system_and_trace(self):
        config = ScenarioConfig(pms_per_dc=2, n_vms=4, n_intervals=6,
                                seed=3)
        trace = multidc_trace(config)
        system = multidc_system(config)
        system.step(trace, 0)
        # A placed VM the trace knows nothing about (e.g. an internal
        # service deployed out-of-band between rounds).
        system.vms["ghost"] = VirtualMachine(vm_id="ghost")
        system.contracts.setdefault("ghost", SLAContract())
        system.deploy("ghost", system.pms[0].pm_id)
        return system, trace

    def test_build_problem_skips_untraced(self, system_and_trace):
        system, trace = system_and_trace
        problem = build_problem(system, trace, 1, OracleEstimator())
        ids = {r.vm_id for r in problem.requests}
        assert "ghost" not in ids
        assert ids == set(system.vms) - {"ghost"}

    def test_untraced_vm_still_constrains_capacity(self, system_and_trace):
        system, trace = system_and_trace
        problem = build_problem(system, trace, 1, OracleEstimator())
        host = problem.host(system.pms[0].pm_id)
        assert "ghost" in host.committed

    def test_explicit_scope_tolerated(self, system_and_trace):
        system, trace = system_and_trace
        problem = build_problem(system, trace, 1, OracleEstimator(),
                                scope_vms=sorted(system.vms))
        assert "ghost" not in {r.vm_id for r in problem.requests}

    def test_round_snapshot_matches(self, system_and_trace):
        system, trace = system_and_trace
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        problem = round_.problem()
        ref = build_problem(system, trace, 1, OracleEstimator())
        assert ([r.vm_id for r in problem.requests]
                == [r.vm_id for r in ref.requests])
        fast = round_.pack(problem)
        scalar = descending_best_fit(ref)
        assert fast.assignment == scalar.assignment

    def test_hierarchical_round_tolerates_untraced(self, system_and_trace):
        system, trace = system_and_trace
        for snapshot in (True, False):
            scheduler = HierarchicalScheduler(
                estimator=OracleEstimator(), use_round_snapshot=snapshot)
            assignment = scheduler(system, trace, 1)
            assert "ghost" not in assignment

    def test_loads_override_reinstates_vm(self, system_and_trace):
        system, trace = system_and_trace
        override = {"ghost": {"BCN": LoadVector(5.0, 4000.0, 0.02)}}
        problem = build_problem(system, trace, 1, OracleEstimator(),
                                loads_override=override)
        assert "ghost" in {r.vm_id for r in problem.requests}
