"""Differential tests: batch placement scoring == scalar reference.

Both vectorized scorers — `evaluate_candidates` and `RoundScorer.evaluate`
— must agree with a loop of scalar `placement_profit` calls within 1e-9 on
every field, for every estimator, across randomized problems covering
powered-off hosts, full hosts, zero-capacity hosts, migration cases and
zero-load VMs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bestfit import SchedulingRound, descending_best_fit
from repro.core.estimators import (MLEstimator, ObservedEstimator,
                                   OracleEstimator)
from repro.core.model import (HostBatch, HostView, ObjectiveWeights,
                              RoundScorer, SchedulingProblem, VMRequest,
                              evaluate_candidates, placement_profit)
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA, SLAContract
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)
from repro.sim.demand import LoadVector
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.network import PAPER_LOCATIONS, paper_network_model
from repro.sim.power import atom_power_model, linear_power_model

TOL = 1e-9

FIELDS = ("profit_eur", "revenue_eur", "energy_cost_eur",
          "migration_penalty_eur", "sla", "used_cpu", "migration_seconds")


def random_problem(rng, estimator, n_hosts=8, n_vms=10, weights=None,
                   auto_power_off=True):
    """A deliberately nasty random round.

    Mixes powered-off hosts, a (near-)full host with out-of-scope
    residents, a zero-capacity host, heterogeneous power curves and
    tariffs, VMs that stay / migrate / have no current host, multi-source
    and zero-rps loads, and nonzero gateway queues.
    """
    power_models = [atom_power_model(),
                    linear_power_model(8, 60.0, 180.0)]
    hosts = []
    for i in range(n_hosts):
        loc = PAPER_LOCATIONS[int(rng.integers(0, len(PAPER_LOCATIONS)))]
        if i == n_hosts - 1:
            capacity = Resources(cpu=0.0, mem=0.0, bw=0.0)
        else:
            capacity = Resources(cpu=float(rng.choice([200.0, 400.0, 800.0])),
                                 mem=float(rng.choice([2048.0, 4096.0])),
                                 bw=125_000.0)
        host = HostView(pm_id=f"pm{i}", location=loc, capacity=capacity,
                        power_model=power_models[i % len(power_models)],
                        energy_price_eur_kwh=float(rng.uniform(0.05, 0.2)),
                        initially_on=bool(rng.random() < 0.7))
        # Out-of-scope residents; host 0 gets overloaded past capacity.
        n_residents = 6 if i == 0 else int(rng.integers(0, 3))
        for k in range(n_residents):
            demand = Resources(cpu=float(rng.uniform(10.0, 150.0)),
                               mem=float(rng.uniform(100.0, 900.0)),
                               bw=float(rng.uniform(100.0, 4000.0)))
            host.commit(f"resident{i}_{k}", demand,
                        used_cpu=float(rng.uniform(5.0, demand.cpu)))
        hosts.append(host)
    requests = []
    for j in range(n_vms):
        n_sources = int(rng.integers(1, 4))
        sources = rng.choice(PAPER_LOCATIONS, size=n_sources, replace=False)
        loads = {}
        for s, src in enumerate(sources):
            rps = 0.0 if (j == 0 and s == 0) else float(rng.uniform(0.0, 30.0))
            loads[str(src)] = LoadVector(rps, float(rng.uniform(500.0, 8000.0)),
                                         float(rng.uniform(0.005, 0.06)))
        mode = j % 3
        current_pm = None
        current_location = None
        if mode == 1:  # stays a candidate -> intra/inter-DC migration cases
            k = int(rng.integers(0, n_hosts))
            current_pm = f"pm{k}"
            current_location = hosts[k].location
        elif mode == 2:  # current host not among candidates
            current_pm = "pm-gone"
            current_location = str(rng.choice(PAPER_LOCATIONS))
        requests.append(VMRequest(
            vm=VirtualMachine(vm_id=f"vm{j}",
                              image_size_mb=float(rng.uniform(1024, 8192))),
            contract=PAPER_SLA if j % 2 else SLAContract(rt0=0.2, alpha=5.0),
            loads=loads, current_pm=current_pm,
            current_location=current_location,
            queue_len=float(rng.uniform(0.0, 50.0)) if j % 4 == 0 else 0.0))
    return SchedulingProblem(
        requests=requests, hosts=hosts, network=paper_network_model(),
        prices=PriceBook(), estimator=estimator,
        weights=weights or ObjectiveWeights(),
        auto_power_off=auto_power_off)


def required_of(problem, request):
    return problem.estimator.required_resources(
        request.vm, request.aggregate_load, float("inf"))


def batch_scorers(problem):
    """Every vectorized scorer that accepts the problem's estimator.

    Maps a name to ``evaluate(request, required) -> BatchEvaluation``;
    ``RoundScorer`` refuses estimators without the full batch interface
    (packing then goes through ``evaluate_candidates``).
    """
    batch = HostBatch.of(problem.hosts)
    scorers = {"evaluate_candidates": lambda request, req: (
        evaluate_candidates(problem, request, batch, required=req))}
    try:
        round_scorer = RoundScorer(problem, HostBatch.of(problem.hosts))
    except ValueError:
        pass
    else:
        scorers["RoundScorer"] = round_scorer.evaluate
    return scorers


def assert_batch_matches_scalar(problem):
    """Every (VM, host) pair: batch columns == scalar placement_profit."""
    for scorer, evaluate in batch_scorers(problem).items():
        for request in problem.requests:
            evs = evaluate(request, required_of(problem, request))
            for i, host in enumerate(problem.hosts):
                ev = placement_profit(problem, request, host)
                for name in FIELDS:
                    got = float(getattr(evs, name)[i])
                    want = getattr(ev, name)
                    assert got == pytest.approx(want, abs=TOL), (
                        f"{scorer}: {name} diverges for {request.vm_id} "
                        f"on {host.pm_id}: batch {got!r} vs scalar "
                        f"{want!r}")
                assert float(evs.given_cpu[i]) == pytest.approx(
                    ev.given.cpu, abs=TOL)
                assert float(evs.given_mem[i]) == pytest.approx(
                    ev.given.mem, abs=TOL)
                assert float(evs.given_bw[i]) == pytest.approx(
                    ev.given.bw, abs=TOL)
                assert evs.evaluation(i).fits == ev.fits


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, OracleEstimator())
        assert_batch_matches_scalar(problem)

    def test_auto_power_off_disabled(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng, OracleEstimator(),
                                 auto_power_off=False)
        assert_batch_matches_scalar(problem)

    def test_degenerate_revenue_only_weights(self):
        """Follow-the-load mode: energy = migration = 0."""
        rng = np.random.default_rng(43)
        problem = random_problem(
            rng, OracleEstimator(),
            weights=ObjectiveWeights(revenue=1.0, energy=0.0,
                                     migration=0.0))
        assert_batch_matches_scalar(problem)


class TestDifferentialObserved:
    @pytest.mark.parametrize("seed,overbook", [(5, 1.0), (6, 2.0)])
    def test_random_problems(self, seed, overbook, tiny_monitor):
        est = ObservedEstimator(monitor=tiny_monitor, overbook=overbook)
        est.refresh()
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, est)
        assert_batch_matches_scalar(problem)

    def test_unobserved_vms_fall_back_to_default(self, tiny_monitor):
        """Fresh (never-monitored) VMs take the default booking."""
        est = ObservedEstimator(monitor=tiny_monitor)
        rng = np.random.default_rng(7)
        problem = random_problem(rng, est)
        assert_batch_matches_scalar(problem)


class TestDifferentialML:
    @pytest.mark.parametrize("seed,sla_mode", [(8, "direct"), (9, "rt")])
    def test_random_problems(self, seed, sla_mode, tiny_models):
        est = MLEstimator(models=tiny_models, sla_mode=sla_mode)
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, est, n_hosts=6, n_vms=6)
        assert_batch_matches_scalar(problem)


class PlainEstimator:
    """Duck-typed estimator: the scalar interface only."""

    inner = OracleEstimator()

    def required_resources(self, vm, load, cpu_cap):
        return self.inner.required_resources(vm, load, cpu_cap)

    def pm_cpu(self, vm_cpus):
        return self.inner.pm_cpu(vm_cpus)

    def process_rt(self, vm, load, required, given, queue_len=0.0):
        return self.inner.process_rt(vm, load, required, given, queue_len)

    def process_sla(self, vm, load, required, given, contract,
                    queue_len=0.0):
        return self.inner.process_sla(vm, load, required, given, contract,
                                      queue_len)


class TestDucktypedEstimator:
    def test_estimator_without_batch_methods_uses_scalar_fallback(self):
        """Custom estimators need not implement the *_batch interface."""
        rng = np.random.default_rng(10)
        problem = random_problem(rng, PlainEstimator(), n_hosts=5, n_vms=5)
        assert list(batch_scorers(problem)) == ["evaluate_candidates"]
        assert_batch_matches_scalar(problem)

    def test_batch_packing_returns_the_scalar_assignment(self):
        """descending_best_fit(batch=True) and SchedulingRound.pack both
        return the batch=False assignment for a scalar-only estimator."""
        config = ScenarioConfig(pms_per_dc=2, n_vms=8, n_intervals=4,
                                seed=10)
        trace = multidc_trace(config)
        system = multidc_system(config)
        system.step(trace, 0)
        round_ = SchedulingRound(system, trace, 1, PlainEstimator())
        problem = round_.problem()
        want = descending_best_fit(problem, batch=False)
        assert want.assignment
        assert (descending_best_fit(problem, batch=True).assignment
                == want.assignment)
        assert round_.pack(problem).assignment == want.assignment


class TestPrebuiltBatch:
    def test_accepts_prebuilt_batch_and_required(self):
        rng = np.random.default_rng(12)
        problem = random_problem(rng, OracleEstimator())
        request = problem.requests[1]
        batch = HostBatch.of(problem.hosts)
        scores = evaluate_candidates(problem, request, batch,
                                     required=required_of(problem, request))
        want = evaluate_candidates(problem, request, problem.hosts)
        np.testing.assert_allclose(scores.profit_eur, want.profit_eur,
                                   atol=TOL)


class TestIncrementalUpdates:
    def test_commit_keeps_batch_in_sync(self):
        """After a commit, batch columns equal rebuilt-from-scratch."""
        rng = np.random.default_rng(13)
        problem = random_problem(rng, OracleEstimator())
        batch = HostBatch.of(problem.hosts)
        request = problem.requests[2]
        req = required_of(problem, request)
        batch.commit(3, request.vm_id, req, used_cpu=req.cpu)
        fresh = HostBatch.of(problem.hosts)
        for name in ("used_cpu", "used_mem", "used_bw",
                     "committed_cpu_sum", "committed_count"):
            np.testing.assert_array_equal(getattr(batch, name),
                                          getattr(fresh, name))


@settings(max_examples=30, deadline=None)
@given(rps=st.floats(0.0, 80.0),
       cpu_time=st.floats(0.001, 0.08),
       resident_cpu=st.floats(0.0, 500.0),
       initially_on=st.booleans(),
       migrating=st.booleans())
def test_property_single_pair(rps, cpu_time, resident_cpu, initially_on,
                              migrating):
    """Hypothesis: scalar == batch over the raw parameter space."""
    host = HostView(pm_id="h0", location="BCN",
                    capacity=Resources(400.0, 4096.0, 125_000.0),
                    power_model=atom_power_model(),
                    energy_price_eur_kwh=0.12, initially_on=initially_on)
    if resident_cpu > 0.0:
        host.commit("resident", Resources(resident_cpu, 512.0, 1000.0),
                    used_cpu=resident_cpu)
    request = VMRequest(
        vm=VirtualMachine(vm_id="vm0"), contract=PAPER_SLA,
        loads={"BST": LoadVector(rps, 4000.0, cpu_time)},
        current_pm="elsewhere" if migrating else None,
        current_location="BRS" if migrating else None)
    problem = SchedulingProblem(
        requests=[request], hosts=[host], network=paper_network_model(),
        prices=PriceBook(), estimator=OracleEstimator())
    ev = placement_profit(problem, request, host)
    for evaluate in batch_scorers(problem).values():
        evs = evaluate(request, required_of(problem, request))
        for name in FIELDS:
            assert float(getattr(evs, name)[0]) == pytest.approx(
                getattr(ev, name), abs=TOL)
