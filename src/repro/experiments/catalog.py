"""The ROADMAP's large-scale scenarios, shipped as registry specs.

These are the scenarios the per-module experiment era could not afford
to add — each is a ~30-line declarative spec over the engine instead of
a new module:

* ``flash_crowd_failures`` — the paper's flash crowd landing while host
  failures are being injected: the two robustness stressors PRs 1–3
  only ever exercised separately.  A managed (hierarchical) run is
  compared against an unmanaged (static) one.
* ``follow_the_sun_8dc`` — tariff-driven consolidation at the 8-DC x
  3000-VM scale: solar-discounted electricity walks around the planet
  (time-compressed so a short run sweeps a full solar day) and the
  unchanged profit objective chases it.
* ``ml_large_fleet`` — the Table I model set driving the 500-VM x
  200-PM fleet through the vectorized
  ``MLEstimator.required_resources_batch`` path (models trained on a
  small fleet, transferred to the large one), with the ranking-
  amplification ladder: raw models vs bagged ensembles vs the
  calibrated, variance-penalized ranking (``VariantSpec(risk=...)``).
* ``huge_fleet_stream`` — bounded-memory stepping at the 50k-VM scale:
  the per-DC stepper's KPI-only mode (``VariantSpec(sharded=True)``)
  against its full-report mode reduced afterwards (the ``monolithic``
  variant), meant to be run with a streaming sink
  (``scenarios run huge_fleet_stream --stream out.jsonl``) so peak
  memory stays flat in both fleet size and horizon.  Its ``scale`` knob
  multiplies the *fleet* (VMs and PMs together), not the request rate.

All three run from the registry (``python -m repro.cli scenarios run
<name>``) and are benchmark-gated in
``benchmarks/test_bench_scenarios.py``.

The second half of the module registers the specs behind the
``examples/`` scripts (``quickstart``, ``follow_the_sun``,
``surviving_failures``): each example is now a registry lookup plus
:func:`~repro.experiments.engine.run_scenario`, with only the
pretty-printing left in the script.
"""

from __future__ import annotations

from dataclasses import replace

from .engine import (REGISTRY, FailureSpec, FleetSpec, ScenarioSpec,
                     SchedulerSpec, TariffSpec, TrainingSpec, VariantSpec,
                     WorkloadSpec, fallback)
from .scenario import ScenarioConfig
from ..core.hierarchical import DEFAULT_MIN_GAIN_EUR
from ..core.model import ObjectiveWeights
from ..ml.calibration import RiskConfig
from ..sim.network import PAPER_LOCATIONS
from ..workload.patterns import FlashCrowd

__all__ = ["flash_crowd_failures_spec", "follow_the_sun_8dc_spec",
           "ml_large_fleet_spec", "ML_LARGE_FLEET_RISK",
           "huge_fleet_stream_spec",
           "quickstart_spec", "follow_the_sun_spec",
           "surviving_failures_spec"]


def flash_crowd_failures_spec(n_intervals: int = 48, seed: int = 7,
                              scale: float = 1.2,
                              pms_per_dc: int = 4, n_vms: int = 20,
                              fail_prob: float = 0.05) -> ScenarioSpec:
    """Flash crowd x host failures on the canonical 4-DC fleet.

    The paper's minute-70-90 surge (4x) hits while a failure injector
    keeps up to two hosts down at any time, so the scheduler must absorb
    the overload *and* re-place orphans in the same rounds.  The
    ``unmanaged`` variant shows what the stressors cost without a
    scheduler (orphans stay down, the surge saturates the home hosts).
    """
    config = ScenarioConfig(pms_per_dc=pms_per_dc, n_vms=n_vms,
                            n_intervals=n_intervals, scale=scale,
                            seed=seed,
                            flash_crowds=(FlashCrowd(70.0, 90.0, 4.0),))
    return ScenarioSpec(
        name="flash_crowd_failures",
        description="Flash crowd landing during a host-failure window "
                    "(4 DCs, managed vs unmanaged)",
        fleet=FleetSpec("multidc", config=config),
        workload=WorkloadSpec("multidc", config=config),
        failures=FailureSpec(fail_prob=fail_prob, repair_intervals=3,
                             max_down=2, seed=seed + 1),
        variants=(
            VariantSpec("managed", SchedulerSpec(
                "hierarchical",
                params=dict(estimator="oracle", sla_move_threshold=0.9))),
            VariantSpec("unmanaged", SchedulerSpec("static")),
        ),
        seed=seed)


REGISTRY.register(
    "flash_crowd_failures",
    description="Flash crowd during a host-failure window (4 DCs, "
                "managed vs unmanaged)")(
    lambda n_intervals=None, seed=None, scale=None:
        flash_crowd_failures_spec(n_intervals=fallback(n_intervals, 48),
                                  seed=fallback(seed, 7),
                                  scale=fallback(scale, 1.2)))


def follow_the_sun_8dc_spec(n_intervals: int = 24, seed: int = 11,
                            scale: float = 1.0,
                            n_dcs: int = 8, pms_per_dc: int = 56,
                            n_vms: int = 3000) -> ScenarioSpec:
    """Tariff-driven follow-the-sun at the 8-DC x 3000-VM scale.

    Solar-discounted tariffs (90 % off at local solar noon) rotate
    around the ``n_dcs`` synthetic locations, whose "timezones" are
    spread evenly over the 24-hour clock; the tariff clock is
    time-compressed (1 h per 10-minute round) so the default 24-round
    run sweeps one full solar day.  The ``follow_the_sun`` variant runs
    the hierarchical scheduler with a *wide* global interface
    (``sla_move_threshold=1.0``: every VM is a global candidate, hosts
    stay narrowed per §IV.C), so the unchanged profit objective walks
    consolidated VMs toward whichever DCs are cheap — the churn-damping
    hysteresis keeps the walk to real gains.  The ``narrow`` variant
    keeps the paper's QoS-only interface (energy never moves a VM across
    DCs: it consolidates locally but cannot chase the sun), and
    ``static`` is the no-scheduler baseline.
    """
    fleet = FleetSpec("synthetic_hierarchical", params=dict(
        n_dcs=n_dcs, pms_per_dc=pms_per_dc, n_vms=n_vms,
        n_intervals=n_intervals, seed=seed))
    # ``scale`` replays the shared fleet trace at another request rate.
    trace_scale = None if scale == 1.0 else scale
    return ScenarioSpec(
        name="follow_the_sun_8dc",
        description="Tariff-driven follow-the-sun at 8 DCs x 3000 VMs",
        fleet=fleet,
        workload=WorkloadSpec("fleet"),
        tariffs=TariffSpec(
            kind="solar",
            base_eur_kwh=None,  # each DC's own synthetic tariff
            params=dict(solar_discount=0.9, daylight_hours=10.0),
            interval_s=3600.0, tz_spread=True),
        variants=(
            VariantSpec("follow_the_sun", SchedulerSpec(
                "hierarchical",
                params=dict(estimator="oracle", sla_move_threshold=1.0)),
                trace_scale=trace_scale),
            VariantSpec("narrow", SchedulerSpec(
                "hierarchical",
                params=dict(estimator="oracle", sla_move_threshold=0.9)),
                trace_scale=trace_scale),
            VariantSpec("static", SchedulerSpec("static"),
                        trace_scale=trace_scale),
        ),
        seed=seed)


REGISTRY.register(
    "follow_the_sun_8dc",
    description="Tariff-driven follow-the-sun at 8 DCs x 3000 VMs")(
    lambda n_intervals=None, seed=None, scale=None:
        follow_the_sun_8dc_spec(n_intervals=fallback(n_intervals, 24),
                                seed=fallback(seed, 11),
                                scale=fallback(scale, 1.0)))


#: The risk setting the calibrated ``ml_large_fleet`` variant ships with:
#: conformal median margin, a 2x ensemble-spread penalty and the
#: fit-degradation guard (see :class:`repro.ml.calibration.RiskConfig`).
ML_LARGE_FLEET_RISK = RiskConfig(coverage=0.5, spread_weight=2.0)


def ml_large_fleet_spec(n_intervals: int = 6, seed: int = 7,
                        scale: float = 1.0,
                        n_hosts: int = 200,
                        n_vms: int = 500,
                        bagging: int = 4) -> ScenarioSpec:
    """Table I models scheduling the 500-VM x 200-PM synthetic fleet.

    The model set is trained on a *small* fleet of the same family (16
    hosts, 40 VMs, four load scales up to deep overload) and
    transferred to the large one — the regime the ROADMAP asks for,
    where ``ModelSet`` batch prediction
    (``MLEstimator.required_resources_batch``) estimates the demand of
    every VM of a scheduling round in one call instead of 500 scalar
    calls.  All ML variants run with the churn-damping hysteresis; an
    ``oracle`` variant bounds what perfect models would achieve, and
    ``static`` is the no-scheduler baseline.

    The four ML variants stake out the ranking-amplification story
    (formerly a ROADMAP open item):

    * ``bf_ml`` — raw transferred models.  Argmax over 200 candidate
      hosts per VM amplifies a single model's optimistic errors (the
      argmax picks the most over-estimated host), so it trades far more
      SLA (~0.44) for its energy savings than the oracle (~0.92) does.
    * ``bf_ml_bagged`` — ``bagging``-member bootstrap ensembles,
      plain mean averaging.  Variance reduction alone barely moves the
      needle: the means stay optimistic exactly where the harvest has
      no support.
    * ``bf_ml_calibrated`` — the same ensembles ranked risk-aware
      (:data:`ML_LARGE_FLEET_RISK`): conformal margin + spread penalty
      + fit guard.  Recovers SLA >= 0.8 while keeping ~90 % of the raw
      variant's energy cut (benchmark-gated).

    Both bagged variants share one ensemble training run (the engine
    keys model reuse on the full training knobs).
    """
    trace_scale = None if scale == 1.0 else scale
    training = TrainingSpec(
        scales=(0.4, 0.8, 1.6, 3.0), seed=seed,
        fleet=FleetSpec("synthetic_fleet", params=dict(
            n_hosts=16, n_vms=40, n_intervals=48, seed=seed)),
        workload=WorkloadSpec("fleet"))
    bagged = replace(training, bagging=bagging)
    ml_sched = SchedulerSpec("bf_ml", min_gain_eur=DEFAULT_MIN_GAIN_EUR)
    return ScenarioSpec(
        name="ml_large_fleet",
        description="ML estimators driving the 500-VM x 200-PM fleet "
                    "(raw / bagged / calibrated ranking)",
        fleet=FleetSpec("synthetic_fleet", params=dict(
            n_hosts=n_hosts, n_vms=n_vms, n_intervals=n_intervals,
            seed=seed)),
        workload=WorkloadSpec("fleet"),
        training=training,
        variants=(
            VariantSpec("bf_ml", ml_sched, trace_scale=trace_scale),
            VariantSpec("bf_ml_bagged", ml_sched, trace_scale=trace_scale,
                        training=bagged),
            VariantSpec("bf_ml_calibrated", ml_sched,
                        trace_scale=trace_scale, training=bagged,
                        risk=ML_LARGE_FLEET_RISK),
            VariantSpec("static", SchedulerSpec("static"),
                        trace_scale=trace_scale),
            VariantSpec("oracle",
                        SchedulerSpec("oracle",
                                      min_gain_eur=DEFAULT_MIN_GAIN_EUR),
                        trace_scale=trace_scale),
        ),
        seed=seed)


REGISTRY.register(
    "ml_large_fleet",
    description="ML estimators on the 500-VM x 200-PM fleet (raw / "
                "bagged / calibrated ranking)")(
    lambda n_intervals=None, seed=None, scale=None:
        ml_large_fleet_spec(n_intervals=fallback(n_intervals, 6),
                            seed=fallback(seed, 7),
                            scale=fallback(scale, 1.0)))


def huge_fleet_stream_spec(n_intervals: int = 6, seed: int = 31,
                           scale: float = 1.0,
                           n_dcs: int = 8, pms_per_dc: int = 950,
                           n_vms: int = 50_000) -> ScenarioSpec:
    """Bounded-memory stepping at the 50–100k-VM scale.

    ``n_vms`` VMs over ``n_dcs`` DCs, both variants stepped through the
    per-DC array stepper under a static placement so the measured cost
    is the stepping itself.  The ``sharded`` variant
    (``VariantSpec(sharded=True)``) runs its KPI-only mode; the
    ``monolithic`` variant builds the full per-VM report every interval
    and reduces it afterwards (report-then-reduce).  Run it with a
    streaming sink (``scenarios run huge_fleet_stream --stream
    out.jsonl``): the sharded variant then reduces each interval
    straight to KPIs with no per-VM boxing, so peak memory stays roughly
    flat in horizon length where the in-memory report-then-reduce run
    grows linearly (``benchmarks/test_bench_sharding.py`` gates both the
    wall-clock and the tracemalloc peak, and pins KPI parity at 1e-9).

    Unlike every other catalog scenario, ``scale`` here multiplies the
    *fleet* — VMs and PMs together, load shape untouched — because the
    whole point is bounded memory as the fleet grows: ``--scale 2``
    is the 100k-VM run.  ``sources_per_vm=1`` keeps the synthetic trace
    itself (which is O(VMs x sources x horizon) regardless of sink)
    from dominating the memory story.
    """
    n_vms = max(n_dcs, int(round(n_vms * scale)))
    pms_per_dc = max(1, int(round(pms_per_dc * scale)))
    fleet = FleetSpec("synthetic_hierarchical", params=dict(
        n_dcs=n_dcs, pms_per_dc=pms_per_dc, n_vms=n_vms,
        n_intervals=n_intervals, sources_per_vm=1, seed=seed))
    return ScenarioSpec(
        name="huge_fleet_stream",
        description="Bounded-memory sharded stepping at 50k+ VMs "
                    "(KPI-only vs report-then-reduce, stream the KPIs)",
        fleet=fleet,
        workload=WorkloadSpec("fleet"),
        variants=(
            VariantSpec("sharded", SchedulerSpec("static"), sharded=True),
            VariantSpec("monolithic", SchedulerSpec("static")),
        ),
        seed=seed)


REGISTRY.register(
    "huge_fleet_stream",
    description="Bounded-memory sharded stepping at 50k+ VMs (KPI-only "
                "vs report-then-reduce, stream the KPIs)")(
    lambda n_intervals=None, seed=None, scale=None:
        huge_fleet_stream_spec(n_intervals=fallback(n_intervals, 6),
                               seed=fallback(seed, 31),
                               scale=fallback(scale, 1.0)))


# =============================================================================
# The specs behind the examples/ scripts
# =============================================================================

def quickstart_spec(n_intervals: int = 72, seed: int = 42,
                    scale: float = 3.0) -> ScenarioSpec:
    """The quickstart demo: static vs ML-driven Best-Fit on the 4 DCs.

    A shorter-than-paper day (72 rounds) of the canonical scenario; the
    Table I models are trained first (fixed training seed, as in the
    original script) and then drive the dynamic variant.
    """
    config = ScenarioConfig(n_intervals=n_intervals, scale=scale,
                            seed=seed)
    return ScenarioSpec(
        name="quickstart",
        description="Quickstart — static vs ML-driven Best-Fit on the "
                    "canonical 4 DCs",
        fleet=FleetSpec("multidc", config=config),
        workload=WorkloadSpec("multidc", config=config),
        training=TrainingSpec(seed=7),
        variants=(
            VariantSpec("static", SchedulerSpec("static")),
            VariantSpec("dynamic", SchedulerSpec("bf_ml")),
        ),
        seed=seed)


REGISTRY.register(
    "quickstart",
    description="Quickstart — static vs ML-driven Best-Fit on the "
                "canonical 4 DCs")(
    lambda n_intervals=None, seed=None, scale=None:
        quickstart_spec(n_intervals=fallback(n_intervals, 72),
                        seed=fallback(seed, 42),
                        scale=fallback(scale, 3.0)))


def follow_the_sun_spec(n_intervals: int = 144, seed: int = 11,
                        scale: float = 2.0) -> ScenarioSpec:
    """Follow-the-sun on the canonical 4 DCs under solar tariffs.

    Exaggerated brown-energy price (3 EUR/kWh everywhere) with a 90 %
    solar discount, so the (unchanged) profit objective walks the
    consolidated VMs westward with the sun.  ``affinity_boost=1.0``
    flattens the client mix: latency has no favourite DC, energy decides.
    """
    config = ScenarioConfig(n_intervals=n_intervals, scale=scale,
                            affinity_boost=1.0, seed=seed)
    return ScenarioSpec(
        name="follow_the_sun",
        description="Follow-the-sun on the canonical 4 DCs (solar "
                    "tariffs, oracle Best-Fit vs static)",
        fleet=FleetSpec("multidc", config=config),
        workload=WorkloadSpec("multidc", config=config),
        tariffs=TariffSpec(
            kind="solar",
            base_eur_kwh={loc: 3.0 for loc in PAPER_LOCATIONS},
            params=dict(solar_discount=0.9)),
        variants=(
            VariantSpec("follow_the_sun", SchedulerSpec(
                "oracle",
                weights=ObjectiveWeights(revenue=1.0, energy=1.0,
                                         migration=1.0))),
            VariantSpec("static", SchedulerSpec("static")),
        ),
        seed=seed)


REGISTRY.register(
    "follow_the_sun",
    description="Follow-the-sun on the canonical 4 DCs (solar tariffs, "
                "oracle Best-Fit vs static)")(
    lambda n_intervals=None, seed=None, scale=None:
        follow_the_sun_spec(n_intervals=fallback(n_intervals, 144),
                            seed=fallback(seed, 11),
                            scale=fallback(scale, 2.0)))


def surviving_failures_spec(n_intervals: int = 96, seed: int = 21,
                            scale: float = 3.0) -> ScenarioSpec:
    """Host failures with on-line learning vs no management at all.

    The same deterministic failure schedule hits both variants; the
    managed one re-places orphans with the
    :class:`~repro.core.online.OnlineLearningScheduler` (bootstrapped
    from the Table I models, retraining on the freshest window) while
    the unmanaged one leaves them down until repair.
    """
    config = ScenarioConfig(n_intervals=n_intervals, scale=scale,
                            seed=seed)
    return ScenarioSpec(
        name="surviving_failures",
        description="Host failures — online-learning managed vs "
                    "unmanaged (4 DCs)",
        fleet=FleetSpec("multidc", config=config),
        workload=WorkloadSpec("multidc", config=config),
        training=TrainingSpec(seed=7),
        failures=FailureSpec(fail_prob=0.04, repair_intervals=6,
                             max_down=2, seed=5),
        variants=(
            VariantSpec("managed", SchedulerSpec(
                "online", params=dict(monitor_seed=6, retrain_every=12,
                                      window=1500, min_samples=120))),
            VariantSpec("unmanaged", SchedulerSpec("static")),
        ),
        seed=seed)


REGISTRY.register(
    "surviving_failures",
    description="Host failures — online-learning managed vs unmanaged "
                "(4 DCs)")(
    lambda n_intervals=None, seed=None, scale=None:
        surviving_failures_spec(n_intervals=fallback(n_intervals, 96),
                                seed=fallback(seed, 21),
                                scale=fallback(scale, 3.0)))
