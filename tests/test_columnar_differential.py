"""Columnar-vs-object differential harness: bit-identical summaries.

The columnar engine's determinism contract (see
``src/repro/simulation/columnar.py``) is that for *any* scenario its
``summary()`` is bit-identical to the object engine's — resilience and
fabric blocks, stretch rescaling and degradation timelines included.
This suite sweeps the contract across policies, fault scenarios
(machine-fault and network-fabric universes), preemption, predictors and
trace shapes, plus hypothesis-randomized traces, comparing the canonical
JSON digest of the full summary.

A digest mismatch here means the engines diverged somewhere; rerun with
engine-specific summaries dumped to JSON and diff them to find the field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.resilience.scenarios import SCENARIOS, build_scenario_plan
from repro.simulation import HarmonyConfig, HarmonySimulation, cluster
from repro.simulation.columnar import ColumnarFirstFitScheduler
from repro.simulation.scheduler import FirstFitScheduler
from repro.trace import SyntheticTraceConfig, generate_trace
from tests import reference_retest as reference


def summary_digest(summary: dict) -> str:
    payload = json.dumps(summary, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_engine(engine: str, trace, **config_kwargs) -> str:
    config = HarmonyConfig(engine=engine, **config_kwargs)
    return summary_digest(HarmonySimulation(config, trace).run().summary())


def assert_engines_agree(trace, **config_kwargs) -> None:
    digest_object = run_engine("object", trace, **config_kwargs)
    digest_columnar = run_engine("columnar", trace, **config_kwargs)
    assert digest_object == digest_columnar, (
        f"engines diverged for config {config_kwargs!r}"
    )


@pytest.fixture(scope="module")
def sweep_trace():
    """The golden-fixture trace shape (0.5 h, 120 machines, load 0.4)."""
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=0.5, seed=11, total_machines=120, load_factor=0.4
        )
    )


class TestGoldenEquivalence:
    def test_golden_fixture_scenario(self, sweep_trace):
        """The exact golden-snapshot scenario, both engines."""
        assert_engines_agree(sweep_trace, policy="cbs", predictor="ewma", seed=11)


class TestFaultScenarioSweep:
    """Threshold policy under every fault scenario, including fabric faults."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario(self, sweep_trace, scenario):
        plan = build_scenario_plan(scenario, sweep_trace.horizon, seed=3)
        assert_engines_agree(sweep_trace, policy="threshold", fault_plan=plan, seed=3)


class TestPolicySweep:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policy="baseline", seed=5),
            dict(policy="static", seed=5),
            dict(policy="cbp", predictor="ewma", seed=7),
            dict(policy="cbs", predictor="fallback", seed=7),
            dict(policy="cbs", predictor="ewma", enable_preemption=True, seed=9),
        ],
        ids=lambda kw: "-".join(str(v) for v in kw.values()),
    )
    def test_policy(self, sweep_trace, kwargs):
        assert_engines_agree(sweep_trace, **kwargs)


class TestDeepBacklog:
    def test_degradation_under_blackout_on_bigger_trace(self):
        """A heavier trace exercising crash sweeps, stretch reissue and
        the degradation ladder — the paths the columnar engine batches."""
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=1.0, seed=4, total_machines=150, load_factor=0.7
            )
        )
        plan = build_scenario_plan("blackout", trace.horizon, seed=4)
        assert_engines_agree(
            trace, policy="cbs", predictor="fallback", fault_plan=plan, seed=4
        )

    def test_round_skip_under_quotas_partition_and_preemption(self, monkeypatch):
        """A deep backlog where signature proofs save walks everywhere.

        CBS quotas make admission refuse, constrained tasks exercise the
        ``allowed`` pools, a partial partition makes every skipped walk
        count a fabric deferral, and preemption invalidates proofs
        mid-run.  The columnar scheduler's counters must show all three
        savings — rows skipped inside rounds on their signature's proof,
        arrivals failed without a walk, and idle rounds returned at once —
        and the summary, fabric deferrals included, must equal the object
        engine's.  Every proof retest must leave the bits the frozen
        vectorized retest leaves, so the savings counters stay as they were.
        """
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=0.5,
                seed=22,
                total_machines=120,
                load_factor=0.9,
                constrained_fraction=0.3,
            )
        )
        plan = build_scenario_plan("partial_partition", trace.horizon, seed=22)
        config = dict(
            policy="cbs",
            predictor="ewma",
            fault_plan=plan,
            enable_preemption=True,
            seed=22,
        )
        schedulers: list[ColumnarFirstFitScheduler] = []
        init = ColumnarFirstFitScheduler.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            schedulers.append(self)

        monkeypatch.setattr(ColumnarFirstFitScheduler, "__init__", spy_init)
        consume = ColumnarFirstFitScheduler._consume_events
        retests = {"run": 0, "cleared": 0}

        def checked_consume(self, ledger):
            before = self._proven.copy()
            expected = reference.retested_proofs(self, ledger)
            consume(self, ledger)
            assert np.array_equal(self._proven, expected)
            retests["run"] += 1
            retests["cleared"] += int(not np.array_equal(before, expected))

        monkeypatch.setattr(
            ColumnarFirstFitScheduler, "_consume_events", checked_consume
        )
        summaries = {
            engine: HarmonySimulation(
                HarmonyConfig(engine=engine, **config), trace
            ).run().summary()
            for engine in ("object", "columnar")
        }
        assert summary_digest(summaries["object"]) == summary_digest(
            summaries["columnar"]
        )
        (scheduler,) = schedulers
        # Frozen: a retest clearing more or fewer proofs moves them.
        assert scheduler.proven_skips == 34415
        assert scheduler.proven_arrivals == 1670
        assert scheduler.idle_rounds == 695
        assert 0 < retests["cleared"] < retests["run"]
        # The paths the scenario is meant to reach did run.
        columnar = summaries["columnar"]
        assert columnar["tasks_preempted"] > 0
        deferred = columnar["resilience"]["fabric"]["deferred_placements"]
        assert deferred > 0
        assert deferred == summaries["object"]["resilience"]["fabric"][
            "deferred_placements"
        ]


@pytest.fixture(scope="module")
def backlog_trace():
    """A deep pending backlog under the threshold policy (load 0.9)."""
    return generate_trace(
        SyntheticTraceConfig(
            horizon_hours=0.5, seed=7, total_machines=120, load_factor=0.9
        )
    )


#: Per-row columns of a run's metrics, compared with ``np.array_equal``
#: (NaN = not scheduled / not finished, -1 = no class / platform).
ROW_COLUMNS = (
    "arrivals", "submit_time", "schedule_time", "finish_time", "class_id", "platform_id",
)


class TestPerRowEquivalence:
    """Per-row outcomes agree, not only the summary reductions.

    Each case reaches a path that resets or relabels rows in place —
    preemption, Poisson crash sweeps, short-to-long relabeling — and the
    test checks that the path ran.
    """

    @pytest.mark.parametrize(
        "case, kwargs, counter",
        [
            (
                "preemption",
                dict(policy="cbs", predictor="ewma", enable_preemption=True, seed=9),
                "tasks_preempted",
            ),
            ("poisson", dict(policy="threshold", seed=3), "tasks_killed"),
            ("relabel", dict(policy="cbs", predictor="ewma", seed=7), "relabel_events"),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_rows_agree(self, backlog_trace, case, kwargs, counter):
        if case == "poisson":
            kwargs = dict(
                kwargs,
                fault_plan=build_scenario_plan("poisson", backlog_trace.horizon, seed=3),
            )
        results = {
            engine: HarmonySimulation(
                HarmonyConfig(engine=engine, **kwargs), backlog_trace
            ).run()
            for engine in ("object", "columnar")
        }
        expected, got = results["object"].metrics, results["columnar"].metrics
        for name in ROW_COLUMNS:
            assert np.array_equal(
                np.asarray(getattr(got, name)),
                np.asarray(getattr(expected, name)),
                equal_nan=True,
            ), f"{name} differs"
        assert getattr(results["object"], counter) > 0
        assert getattr(results["columnar"], counter) == getattr(results["object"], counter)


class TestSchedulerSeam:
    """The two engines share every handler and differ only in the
    scheduler, so what the handlers ask of it must match call by call."""

    def test_rounds_see_the_same_queue(self, backlog_trace, monkeypatch):
        """``queued`` at every round is equal across engines, never zero.

        A round is only ever run over a non-empty queue, and the columnar
        queue holds exactly the object engine's pending tasks — no copy of
        already-placed tasks survives in either.
        """
        seen: dict[type, list[int]] = {}
        for scheduler_cls in (FirstFitScheduler, ColumnarFirstFitScheduler):
            schedule_round = scheduler_cls.schedule_round

            def spy(self, ledger, max_attempts, _round=schedule_round):
                seen.setdefault(type(self), []).append(self.queued)
                return _round(self, ledger, max_attempts)

            monkeypatch.setattr(scheduler_cls, "schedule_round", spy)
        digests = {
            engine: run_engine(engine, backlog_trace, policy="threshold", seed=7)
            for engine in ("object", "columnar")
        }
        assert digests["object"] == digests["columnar"]
        object_queued = seen[FirstFitScheduler]
        assert seen[ColumnarFirstFitScheduler] == object_queued
        assert min(object_queued) > 0
        assert max(object_queued) > cluster.MAX_SCHEDULE_ATTEMPTS // 10

    @pytest.mark.parametrize("policy", ["threshold", "cbs"])
    def test_policy_sees_the_same_views(self, backlog_trace, monkeypatch, policy):
        """Every ``ClusterView`` handed to the policy is equal field by field.

        The threshold policy ignores ``backlog``, so its summary digest
        cannot see a wrong per-class queue count; this compares the views
        themselves (``backlog`` as a dict: key order may differ).
        """
        views: list[cluster.ClusterView] = []
        view_cls = cluster.ClusterView

        def recording_view(**fields):
            view = view_cls(**fields)
            views.append(view)
            return view

        monkeypatch.setattr(cluster, "ClusterView", recording_view)
        per_engine = {}
        for engine in ("object", "columnar"):
            views.clear()
            run_engine(engine, backlog_trace, policy=policy, predictor="ewma", seed=7)
            per_engine[engine] = list(views)
        assert len(per_engine["object"]) == len(per_engine["columnar"]) > 1
        for expected, got in zip(per_engine["object"], per_engine["columnar"]):
            for field in dataclasses.fields(view_cls):
                assert getattr(got, field.name) == getattr(expected, field.name), (
                    f"{field.name} differs at t={expected.time}"
                )
        assert any(view.backlog for view in per_engine["object"])


class TestRandomizedTraces:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.3, 0.6, 0.9]),
        machines=st.sampled_from([40, 90]),
        constrained=st.sampled_from([0.0, 0.3]),
        scenario=st.sampled_from([None, "outage", "partial_partition"]),
    )
    def test_random_trace_equivalence(self, seed, load, machines, constrained, scenario):
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_hours=0.25,
                seed=seed,
                total_machines=machines,
                load_factor=load,
                constrained_fraction=constrained,
            )
        )
        # A short horizon over a tiny fleet can draw zero tasks, which the
        # pipeline rejects before either engine runs — nothing to compare.
        assume(trace.num_tasks > 0)
        kwargs: dict = dict(policy="threshold", seed=seed)
        if scenario is not None:
            kwargs["fault_plan"] = build_scenario_plan(
                scenario, trace.horizon, seed=seed
            )
        assert_engines_agree(trace, **kwargs)
