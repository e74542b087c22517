"""Differential tests: DC-scoped SchedulingRounds vs the global snapshot.

Contract: a :class:`~repro.core.bestfit.SchedulingRound` constructed with
``scope_pms``/``batch_vms`` (host base and demand prefetch restricted to
one shard) packs the *same* assignments as a fleet-wide round solving the
same scoped problem — construction cost shrinks to O(shard) without
changing a single placement.  ``HierarchicalScheduler`` gives every
phase-1 and phase-2 problem such a scoped round and must be
indistinguishable from the object-walking ``build_problem`` reference
(``use_round_snapshot=False``), including under failures.

Also pins the empty-shard regression: an empty problem (zero-PM DC, or a
shard whose hosts all failed, with nothing to place) is a clean no-op
round for both ``descending_best_fit`` and ``SchedulingRound.pack`` —
only an actual request with no candidate host anywhere is an error.
"""

import numpy as np
import pytest

from repro.arena.invariants import (assert_pack_results_equal,
                                    assert_problems_equal)
from repro.core.bestfit import (BestFitResult, SchedulingRound,
                                build_problem, descending_best_fit)
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector
from repro.sim.fleet import report_max_abs_diff


@pytest.fixture(scope="module")
def config():
    return ScenarioConfig(pms_per_dc=3, n_vms=10, n_intervals=12,
                          scale=3.0, seed=5)


@pytest.fixture(scope="module")
def trace(config):
    return multidc_trace(config)


def stepped_system(config, trace):
    system = multidc_system(config)
    system.step(trace, 0)
    return system


def scoped_round(system, trace, t, est, scope_vms, scope_pms, **kwargs):
    return SchedulingRound(system, trace, t, est, scope_pms=scope_pms,
                           batch_vms=scope_vms, **kwargs)


class TestScopedRoundParity:
    def test_per_dc_problems_match_global_round(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        global_round = SchedulingRound(system, trace, 1, est)
        for dc in system.datacenters:
            scope_vms = sorted(dc.vm_ids)
            scope_pms = [pm.pm_id for pm in dc.pms]
            shard = scoped_round(system, trace, 1, est,
                                 scope_vms, scope_pms)
            assert_problems_equal(
                shard.problem(scope_vms, scope_pms),
                global_round.problem(scope_vms, scope_pms))

    def test_per_dc_packs_match_global_round(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        global_round = SchedulingRound(system, trace, 1, est)
        for dc in system.datacenters:
            scope_vms = sorted(dc.vm_ids)
            scope_pms = [pm.pm_id for pm in dc.pms]
            shard = scoped_round(system, trace, 1, est,
                                 scope_vms, scope_pms)
            assert_pack_results_equal(
                shard.best_fit(scope_vms, scope_pms),
                global_round.best_fit(scope_vms, scope_pms))

    def test_scoped_round_matches_reference_problem(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        dc = system.datacenters[0]
        scope_vms = sorted(dc.vm_ids)
        scope_pms = [pm.pm_id for pm in dc.pms]
        shard = scoped_round(system, trace, 2, est, scope_vms, scope_pms)
        assert_problems_equal(
            shard.problem(scope_vms, scope_pms),
            build_problem(system, trace, 2, est,
                          scope_vms=scope_vms, scope_pms=scope_pms))

    def test_cross_shard_candidate_set(self, config, trace):
        """The phase-2 shape: VMs from many DCs, a narrow global PM set."""
        system = stepped_system(config, trace)
        est = OracleEstimator()
        scope_vms = sorted(system.vms)[::2]
        scope_pms = [dc.pms[0].pm_id for dc in system.datacenters]
        shard = scoped_round(system, trace, 1, est, scope_vms, scope_pms)
        global_round = SchedulingRound(system, trace, 1, est)
        assert_pack_results_equal(
            shard.best_fit(scope_vms, scope_pms),
            global_round.best_fit(scope_vms, scope_pms))

    def test_failed_pm_inside_scope(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        dc = system.datacenters[1]
        dc.pms[0].fail()
        scope_vms = sorted(dc.vm_ids)
        scope_pms = [pm.pm_id for pm in dc.pms]
        shard = scoped_round(system, trace, 1, est, scope_vms, scope_pms)
        problem = shard.problem(scope_vms, scope_pms)
        assert dc.pms[0].pm_id not in [h.pm_id for h in problem.hosts]
        global_round = SchedulingRound(system, trace, 1, est)
        assert_pack_results_equal(
            shard.best_fit(scope_vms, scope_pms),
            global_round.best_fit(scope_vms, scope_pms))


class TestScopedRoundsScheduler:
    def test_rounds_identical_to_reference(self, config, trace):
        shard_sys = stepped_system(config, trace)
        ref_sys = stepped_system(config, trace)
        sharded = HierarchicalScheduler(estimator=OracleEstimator())
        ref = HierarchicalScheduler(estimator=OracleEstimator(),
                                    use_round_snapshot=False)
        for t in range(1, 6):
            a = sharded(shard_sys, trace, t)
            b = ref(ref_sys, trace, t)
            assert a == b
            assert (sharded.last_round.movable_vms
                    == ref.last_round.movable_vms)
            assert (sharded.last_round.offered_hosts
                    == ref.last_round.offered_hosts)
            shard_sys.apply_schedule(a)
            ref_sys.apply_schedule(b)
            shard_sys.step(trace, t)
            ref_sys.step(trace, t)

    def test_end_to_end_with_failures_matches_reference(self, config,
                                                        trace):
        def run(**kwargs):
            scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                              **kwargs)
            injector = FailureInjector(rng=np.random.default_rng(99),
                                       fail_prob_per_interval=0.2,
                                       repair_intervals=2, max_down=2)
            system = multidc_system(config)
            history = run_simulation(system, trace, scheduler=scheduler,
                                     failure_injector=injector)
            return system, history

        shard_sys, shard_hist = run()
        ref_sys, ref_hist = run(use_round_snapshot=False)
        assert shard_sys.placement() == ref_sys.placement()
        worst = max(report_max_abs_diff(a, b) for a, b in
                    zip(shard_hist.reports, ref_hist.reports))
        assert worst < 1e-9

    def test_empty_dc_is_skipped(self, config, trace):
        """A zero-VM DC contributes no intra-DC problem on either path."""
        def drained(scheduler):
            system = stepped_system(config, trace)
            empty_dc = system.datacenters[0]
            refuge = [pm.pm_id for dc in system.datacenters[1:]
                      for pm in dc.pms]
            moves = {vm_id: refuge[i % len(refuge)] for i, vm_id in
                     enumerate(sorted(empty_dc.vm_ids))}
            system.apply_schedule(moves)
            assert not empty_dc.vm_ids
            return scheduler(system, trace, 1), system

        sharded = HierarchicalScheduler(estimator=OracleEstimator())
        ref = HierarchicalScheduler(estimator=OracleEstimator(),
                                    use_round_snapshot=False)
        a, sys_a = drained(sharded)
        b, sys_b = drained(ref)
        assert a == b
        assert sharded.last_round.intra_problems == ref.last_round.intra_problems


class TestEmptyProblems:
    def test_reference_empty_problem_is_noop(self, config, trace):
        system = stepped_system(config, trace)
        problem = build_problem(system, trace, 1, OracleEstimator(),
                                scope_vms=[], scope_pms=[])
        assert not problem.hosts and not problem.requests
        result = descending_best_fit(problem)
        assert result == BestFitResult(assignment={}, evaluations={},
                                       order=[])

    def test_round_pack_empty_problem_is_noop(self, config, trace):
        system = stepped_system(config, trace)
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        result = round_.best_fit(scope_vms=[], scope_pms=[])
        assert result.assignment == {}
        assert result.evaluations == {}
        assert result.order == []

    def test_scoped_round_over_zero_pms_is_noop(self, config, trace):
        system = stepped_system(config, trace)
        shard = scoped_round(system, trace, 1, OracleEstimator(), [], [])
        result = shard.best_fit(scope_vms=[], scope_pms=[])
        assert result.assignment == {}

    def test_requests_without_hosts_still_error(self, config, trace):
        system = stepped_system(config, trace)
        vm = sorted(system.vms)[0]
        est = OracleEstimator()
        with pytest.raises(ValueError, match="no candidate hosts"):
            descending_best_fit(build_problem(system, trace, 1, est,
                                              scope_vms=[vm],
                                              scope_pms=[]))
        round_ = SchedulingRound(system, trace, 1, est)
        with pytest.raises(ValueError, match="no candidate hosts"):
            round_.best_fit(scope_vms=[vm], scope_pms=[])

    def test_all_hosts_failed_shard_with_no_requests(self, config, trace):
        system = stepped_system(config, trace)
        dc = system.datacenters[2]
        refuge = [pm.pm_id for other in system.datacenters
                  if other is not dc for pm in other.pms]
        moves = {vm_id: refuge[i % len(refuge)] for i, vm_id in
                 enumerate(sorted(dc.vm_ids))}
        system.apply_schedule(moves)
        for pm in dc.pms:
            pm.fail()
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        result = round_.best_fit(scope_vms=sorted(dc.vm_ids),
                                 scope_pms=[pm.pm_id for pm in dc.pms])
        assert result.assignment == {}
