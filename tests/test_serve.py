"""Tests for repro.serve: the crash-safe online provisioning daemon.

Covers the config split (deterministic vs hot-reloadable, validate-then-
swap reload), the three feeders and the arrival line protocol, the online
classifier, the determinism contract of :class:`ServeState` (chain
digests, checkpoint round-trips, idempotent restore), chaos projection
(blackouts, outages, partitions, solver outages, control-step crashes),
collision-safe tick journals and digest-verified checkpoints, the
watchdog's rollback-through-restore/retry invariance (including a tick
that fails half-applied), hot reload and the HTTP
health/readiness/metrics endpoints.

Everything in-process runs on :class:`ManualClock` — no wall-clock reads,
no sleeps.  The subprocess SIGKILL drills live in ``test_serve_crash.py``.
"""

import json
import threading
import urllib.request

import pytest

from repro.energy.catalog import table2_fleet
from repro.errors import (
    ConfigInvalid,
    ControlStepFailed,
    JournalCorrupt,
    ServeError,
)
from repro.serve import (
    CHAOS_PRESETS,
    ArrivalRecord,
    CheckpointStore,
    ControlCrash,
    FileTailFeeder,
    HealthServer,
    ManualClock,
    OnlineClassifier,
    RELOADABLE_FIELDS,
    ReplayFeeder,
    ServeChaos,
    ServeConfig,
    ServeDaemon,
    ServeMetrics,
    ServeState,
    SocketFeeder,
    SolverOutage,
    TickBatch,
    TickJournal,
    derive_run_id,
    load_config_file,
    parse_arrival_line,
    restore,
)
from repro.serve import checkpoint
from repro.serve.chaos import drill_plan
from repro.serve.state import NO_EFFECTS, ChaosEffects
from repro.simulation.control import ControlPipeline
from repro.trace import SyntheticTraceConfig, generate_trace

CONFIG = ServeConfig(checkpoint_interval_ticks=4)
HORIZON = 2 * 3600.0  # 24 ticks at the default 300 s


@pytest.fixture(scope="module")
def trace_tasks():
    trace = generate_trace(
        SyntheticTraceConfig(horizon_hours=2.0, seed=11, load_factor=0.8)
    )
    return trace.tasks


def make_feeder(tasks, max_ticks=None):
    return ReplayFeeder(
        tasks, horizon=HORIZON, tick_seconds=CONFIG.tick_seconds, max_ticks=max_ticks
    )


def make_chaos(preset="drill", config=CONFIG):
    plan, serve_faults = CHAOS_PRESETS[preset](config.tick_seconds)
    return ServeChaos(
        plan,
        table2_fleet(config.fleet_scale),
        config.tick_seconds,
        serve_faults=serve_faults,
    )


def run_state(tasks, chaos=None, ticks=None, config=CONFIG):
    state = ServeState(config)
    for batch in make_feeder(tasks, max_ticks=ticks).batches():
        effects = chaos.effects(batch.tick) if chaos else NO_EFFECTS
        state.apply_tick(batch, effects)
    return state


# ---------------------------------------------------------------- config


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.tick_seconds == 300.0
        assert set(RELOADABLE_FIELDS) <= set(config.to_dict())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick_seconds": 0.0},
            {"num_classes": 0},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"seasonal_period": 0},
            {"target_delay_seconds": -1.0},
            {"overprovision": 0.5},
            {"fleet_scale": 0.0},
            {"checkpoint_interval_ticks": 0},
            {"watchdog_attempts": 0},
            {"watchdog_backoff_base_seconds": -0.1},
            {"stage_budget_seconds": 0.0},
            {"tick_delay_seconds": -1.0},
            {"health_stale_seconds": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            ServeConfig(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigInvalid, match="unknown config field"):
            ServeConfig.from_dict({"tick_secnds": 300.0})

    def test_deterministic_fields_exclude_ops_knobs(self):
        fields = ServeConfig().deterministic_fields()
        assert not set(fields) & RELOADABLE_FIELDS
        assert "tick_seconds" in fields

    def test_reload_swaps_ops_knobs(self):
        old = ServeConfig(checkpoint_interval_ticks=8)
        candidate = ServeConfig(checkpoint_interval_ticks=2, watchdog_attempts=5)
        merged = old.reloaded(candidate)
        assert merged.checkpoint_interval_ticks == 2
        assert merged.watchdog_attempts == 5

    def test_reload_rejects_deterministic_drift(self):
        old = ServeConfig()
        candidate = ServeConfig(tick_seconds=60.0)
        with pytest.raises(ConfigInvalid, match="tick_seconds"):
            old.reloaded(candidate)

    def test_load_config_file_round_trip(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps({"checkpoint_interval_ticks": 3}))
        assert load_config_file(path).checkpoint_interval_ticks == 3

    def test_load_config_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_config_file(path)


# ---------------------------------------------------------------- feeders


class TestLineProtocol:
    def test_parses_valid_arrival(self):
        record = parse_arrival_line(
            '{"time": 10.0, "cpu": 0.1, "memory": 0.2, "duration": 60}'
        )
        assert record == ArrivalRecord(10.0, 0.1, 0.2, 60.0, 0)

    @pytest.mark.parametrize("keyword", ["tick", "end"])
    def test_control_keywords(self, keyword):
        assert parse_arrival_line(json.dumps({"kind": keyword})) == keyword

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "not json",
            "[1, 2]",
            '{"time": 1.0}',
            '{"time": -5, "cpu": 0.1, "memory": 0.1, "duration": 60}',
            '{"time": 1, "cpu": 0.0, "memory": 0.1, "duration": 60}',
            '{"time": 1, "cpu": 1.5, "memory": 0.1, "duration": 60}',
            '{"time": 1, "cpu": 0.1, "memory": 0.1, "duration": 0}',
            '{"time": NaN, "cpu": 0.1, "memory": 0.1, "duration": 60}',
        ],
    )
    def test_rejects_malformed(self, line):
        assert parse_arrival_line(line) is None


class TestReplayFeeder:
    def test_bins_by_tick_and_resumes(self, trace_tasks):
        feeder = make_feeder(trace_tasks)
        batches = list(feeder.batches())
        assert [b.tick for b in batches] == list(range(24))
        assert sum(len(b.arrivals) for b in batches) > 0
        # start_tick resumes the identical suffix.
        assert list(feeder.batches(start_tick=10)) == batches[10:]

    def test_within_tick_order_is_stable(self, trace_tasks):
        shuffled = list(reversed(trace_tasks))
        a = list(make_feeder(trace_tasks).batches())
        b = list(make_feeder(shuffled).batches())
        assert a == b


class TestFileTailFeeder:
    def test_reads_protocol_and_counts_rejects(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        lines = [
            '{"time": 5.0, "cpu": 0.1, "memory": 0.1, "duration": 30}',
            "garbage line",
            '{"time": 12.0, "cpu": 0.2, "memory": 0.1, "duration": 30}',
            '{"kind": "end"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        feeder = FileTailFeeder(path, tick_seconds=10.0, clock=ManualClock())
        batches = list(feeder.batches())
        assert [b.tick for b in batches] == [0, 1]
        assert len(batches[0].arrivals) == 1
        assert len(batches[1].arrivals) == 1
        assert feeder.rejected == 1


class TestSocketFeeder:
    def test_accepts_one_client_stream(self):
        feeder = SocketFeeder(port=0, tick_seconds=10.0, accept_timeout=5.0)
        host, port = feeder.address

        def client():
            import socket

            with socket.create_connection((host, port), timeout=5.0) as conn:
                conn.sendall(
                    b'{"time": 3.0, "cpu": 0.1, "memory": 0.1, "duration": 30}\n'
                    b'{"kind": "tick"}\n'
                    b'{"kind": "end"}\n'
                )

        thread = threading.Thread(target=client)
        thread.start()
        batches = list(feeder.batches())
        thread.join()
        assert len(batches) >= 1
        assert len(batches[0].arrivals) == 1


# ------------------------------------------------------------- classifier


class TestOnlineClassifier:
    def test_first_k_arrivals_seed_centroids(self):
        classifier = OnlineClassifier(2)
        assert classifier.observe(0.1, 0.1) == 0
        assert classifier.observe(0.8, 0.8) == 1
        # Nearest-centroid afterwards.
        assert classifier.observe(0.12, 0.11) == 0
        assert classifier.observe(0.75, 0.9) == 1

    def test_masked_observation_does_not_learn(self):
        classifier = OnlineClassifier(1)
        classifier.observe(0.2, 0.2)
        before = classifier.centroid(0)
        classifier.observe(0.9, 0.9, update=False)
        assert classifier.centroid(0) == before

    def test_round_trip(self):
        classifier = OnlineClassifier(3)
        for cpu in (0.1, 0.5, 0.9, 0.11, 0.52):
            classifier.observe(cpu, cpu)
        restored = OnlineClassifier.from_state(classifier.to_state(), 3)
        assert restored.to_state() == classifier.to_state()


# ------------------------------------------------------------ state core


class TestServeStateDeterminism:
    def test_two_runs_chain_identical(self, trace_tasks):
        a = run_state(trace_tasks, ticks=8)
        b = run_state(trace_tasks, ticks=8)
        assert a.chain == b.chain
        assert a.digest() == b.digest()

    def test_out_of_order_tick_rejected(self, trace_tasks):
        state = ServeState(CONFIG)
        batches = list(make_feeder(trace_tasks).batches())
        state.apply_tick(batches[0])
        with pytest.raises(ServeError, match="out of order"):
            state.apply_tick(batches[5])

    def test_checkpoint_round_trip_plus_replay_is_bit_identical(
        self, trace_tasks
    ):
        reference = run_state(trace_tasks, ticks=12)
        state = ServeState(CONFIG)
        batches = list(make_feeder(trace_tasks, max_ticks=12).batches())
        for batch in batches[:7]:
            state.apply_tick(batch)
        resumed = ServeState.from_state(state.to_state(), CONFIG)
        for batch in batches[7:]:
            resumed.apply_tick(batch)
        assert resumed.digest() == reference.digest()
        assert resumed.summary() == reference.summary()

    def test_snapshot_digest_is_stable_without_replay(self, trace_tasks):
        """A freshly deserialized state reports the same digest it saved —
        the semantic-verification invariant of CheckpointStore.load."""
        state = run_state(trace_tasks, ticks=9)
        restored = ServeState.from_state(state.to_state(), CONFIG)
        assert restored.digest() == state.digest()

    @pytest.mark.parametrize("ticks", [7, 13])  # mid-trip, mid-partition-hold
    def test_state_round_trips_through_the_pipeline(self, trace_tasks, ticks):
        chaos = make_chaos("drill")
        state = ServeState(CONFIG)
        for batch in make_feeder(trace_tasks, max_ticks=ticks).batches():
            outcome = state.apply_tick(batch, chaos.effects(batch.tick))
        expected = {7: (1, "reactive"), 13: (2, "mpc")}[ticks]
        assert (outcome.rung, outcome.mode) == expected
        payload = state.to_state()
        assert {"ladder", "guard"} <= set(payload)
        assert ServeState.from_state(payload, CONFIG).to_state() == payload

    def test_config_mismatch_rejected(self, trace_tasks):
        state = run_state(trace_tasks, ticks=2)
        other = ServeConfig(num_classes=2)
        with pytest.raises(ServeError, match="deterministic config"):
            ServeState.from_state(state.to_state(), other)


# ----------------------------------------------------------------- chaos


class TestServeChaos:
    def test_drill_story(self, trace_tasks):
        chaos = make_chaos("drill")
        state = run_state(trace_tasks, chaos=chaos)
        summary = state.summary()
        assert summary["masked_ticks"] == 3
        # The ladder left mpc at least once (outage/partition pressure)...
        assert summary["rung_counts"]["mpc"] < 24
        assert (
            summary["rung_counts"]["threshold"] + summary["rung_counts"]["hold"] > 0
        )
        # ...and the partition held at least one cell.
        assert summary["partition_hold_ticks"]

    def test_effects_are_pure_per_tick(self):
        chaos = make_chaos("drill")
        forward = [chaos.effects(t) for t in range(24)]
        fresh = make_chaos("drill")
        backward = [fresh.effects(t) for t in reversed(range(24))]
        assert forward == list(reversed(backward))

    def test_partition_preset_heals(self, trace_tasks):
        chaos = make_chaos("partition")
        state = run_state(trace_tasks, chaos=chaos)
        assert state.summary()["partition_hold_ticks"]
        assert state.pipeline.ladder.reconciliations >= 1

    def test_solver_outage_steps_ladder_down(self, trace_tasks):
        chaos = ServeChaos(
            None,
            table2_fleet(CONFIG.fleet_scale),
            CONFIG.tick_seconds,
            serve_faults=(SolverOutage(tick=3, ticks=2),),
        )
        state = run_state(trace_tasks, chaos=chaos, ticks=8)
        assert state.summary()["rung_counts"]["threshold"] >= 2

    def test_control_crash_flagged_by_tick(self):
        chaos = ServeChaos(
            None,
            table2_fleet(CONFIG.fleet_scale),
            CONFIG.tick_seconds,
            serve_faults=(ControlCrash(tick=5, attempts=2),),
        )
        assert chaos.effects(5).crash_attempts == 2
        assert chaos.effects(4).crash_attempts == 0

    def test_chaos_restore_is_bit_identical_mid_partition(self, trace_tasks):
        reference = run_state(trace_tasks, chaos=make_chaos("drill"))
        state = ServeState(CONFIG)
        chaos = make_chaos("drill")
        batches = list(make_feeder(trace_tasks).batches())
        for batch in batches[:11]:  # stop inside the partition window
            state.apply_tick(batch, chaos.effects(batch.tick))
        resumed = ServeState.from_state(state.to_state(), CONFIG)
        fresh_chaos = make_chaos("drill")
        for batch in batches[11:]:
            resumed.apply_tick(batch, fresh_chaos.effects(batch.tick))
        assert resumed.digest() == reference.digest()


# -------------------------------------------------- journal + checkpoints


class TestTickJournal:
    def batch(self, tick=0):
        return TickBatch(
            tick=tick,
            time=tick * 300.0,
            arrivals=(ArrivalRecord(tick * 300.0, 0.1, 0.1, 60.0, 0),),
        )

    def test_append_load_round_trip(self, tmp_path):
        journal = TickJournal(tmp_path, "run000000001")
        journal.append(self.batch(0))
        journal.append(self.batch(1))
        assert journal.load() == [self.batch(0), self.batch(1)]

    def test_refuses_foreign_run_id(self, tmp_path):
        journal = TickJournal(tmp_path, "run000000001")
        journal.append(self.batch(0))
        imposter = TickJournal(tmp_path, "run000000002")
        imposter.path = journal.path  # same file, different run
        with pytest.raises(JournalCorrupt, match="refusing to mix runs"):
            imposter.append(self.batch(1))
        with pytest.raises(JournalCorrupt, match="refusing to mix runs"):
            imposter.load()

    @pytest.mark.parametrize("cut", ["fragment", "newline_only"])
    def test_append_after_a_crash_cut_tail(self, tmp_path, cut):
        # A crash mid-append leaves the last line without its newline.  A
        # resumed writer must not glue its next line onto it, or every later
        # load (a restore, a watchdog rollback) finds a corrupt mid-file line.
        journal = TickJournal(tmp_path, "run000000001")
        journal.append(self.batch(0))
        journal.append(self.batch(1))
        head, last = journal.path.read_text()[:-1].rsplit("\n", 1)
        if cut == "fragment":  # reads drop it: tick 1 was never journaled
            last = last[:25]
            kept = [self.batch(0)]
        else:  # the whole record made it; only its newline is missing
            kept = [self.batch(0), self.batch(1)]
        journal.path.write_text(head + "\n" + last)
        assert journal.load() == kept
        resumed = TickJournal(tmp_path, "run000000001")
        resumed.append(self.batch(len(kept)))
        assert resumed.load() == kept + [self.batch(len(kept))]

    def test_load_from_a_start_tick_still_verifies_every_line(self, tmp_path):
        journal = TickJournal(tmp_path, "run000000001")
        for tick in range(3):
            journal.append(self.batch(tick))
        assert journal.load(start_tick=2) == [self.batch(2)]
        raw = journal.path.read_text()
        journal.path.write_text(raw.replace('"tick":0,', '"tick":7,', 1))
        with pytest.raises(JournalCorrupt, match="digest mismatch"):
            journal.load(start_tick=2)


class TestCheckpointStore:
    def test_write_load_round_trip(self, tmp_path, trace_tasks):
        state = run_state(trace_tasks, ticks=5)
        store = CheckpointStore(tmp_path, "run000000001")
        store.write(state)
        loaded = store.load(CONFIG)
        assert loaded.digest() == state.digest()

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "run000000001").load(CONFIG) is None

    def test_tampered_checkpoint_rejected(self, tmp_path, trace_tasks):
        state = run_state(trace_tasks, ticks=3)
        store = CheckpointStore(tmp_path, "run000000001")
        store.write(state)
        raw = store.path.read_text()
        store.path.write_text(raw.replace('"ticks_applied":3', '"ticks_applied":4'))
        with pytest.raises(JournalCorrupt, match="digest mismatch"):
            store.load(CONFIG)

    def test_foreign_run_id_rejected(self, tmp_path, trace_tasks):
        state = run_state(trace_tasks, ticks=3)
        store = CheckpointStore(tmp_path, "run000000001")
        store.write(state)
        imposter = CheckpointStore(tmp_path, "run000000002")
        imposter.path = store.path
        with pytest.raises(JournalCorrupt, match="refusing to mix runs"):
            imposter.load(CONFIG)


class TestRestore:
    def run_daemon(self, tasks, tmp_path, run_id, max_ticks=None, chaos=None):
        daemon = ServeDaemon(
            CONFIG,
            make_feeder(tasks),
            state_dir=tmp_path,
            run_id=run_id,
            chaos=chaos,
            clock=ManualClock(),
        )
        return daemon, daemon.run(max_ticks=max_ticks)

    @pytest.mark.parametrize("interrupt_at", [1, 4, 7, 11])
    def test_restore_is_bit_identical_at_any_interrupt(
        self, tmp_path, trace_tasks, interrupt_at
    ):
        _, reference = self.run_daemon(
            trace_tasks, tmp_path / "ref", "run000000001"
        )
        chaos_dir = tmp_path / f"cut{interrupt_at}"
        self.run_daemon(
            trace_tasks, chaos_dir, "run000000001", max_ticks=interrupt_at
        )
        resumed = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=chaos_dir,
            run_id="run000000001",
            clock=ManualClock(),
        )
        summary = resumed.run(restore_state=True)
        assert summary == reference

    def test_restore_is_idempotent(self, tmp_path, trace_tasks):
        self.run_daemon(trace_tasks, tmp_path, "run000000001", max_ticks=9)
        first = restore(CONFIG, tmp_path, "run000000001")
        second = restore(CONFIG, tmp_path, "run000000001")
        assert first.digest() == second.digest()
        # Pure read path: restoring never mutates the files it reads.
        third = restore(CONFIG, tmp_path, "run000000001")
        assert third.digest() == first.digest()

    def test_restore_builds_only_the_replayed_suffix(
        self, tmp_path, trace_tasks, monkeypatch
    ):
        # The whole run's journal beside a checkpoint taken at tick 8.
        live, _ = self.run_daemon(trace_tasks, tmp_path / "live", "run000000001")
        cut, _ = self.run_daemon(
            trace_tasks, tmp_path / "cut", "run000000001", max_ticks=8
        )
        cut.journal.path.write_bytes(live.journal.path.read_bytes())
        built = []

        def counted(**fields):
            built.append(fields["tick"])
            return TickBatch(**fields)

        monkeypatch.setattr(checkpoint, "TickBatch", counted)
        restored = restore(CONFIG, tmp_path / "cut", "run000000001")
        assert built == list(range(8, live.state.ticks_applied))
        assert restored.digest() == live.state.digest()

    def test_journal_gap_is_unrecoverable(self, tmp_path, trace_tasks):
        daemon, _ = self.run_daemon(
            trace_tasks, tmp_path, "run000000001", max_ticks=6
        )
        # Drop a mid-journal tick record and the checkpoint that would
        # otherwise paper over it: replay must notice the hole.
        daemon.checkpoints.path.unlink()
        lines = daemon.journal.path.read_text().splitlines()
        kept = [line for line in lines if '"tick":2,' not in line]
        assert len(kept) == len(lines) - 1
        daemon.journal.path.write_text("\n".join(kept) + "\n")
        with pytest.raises(JournalCorrupt, match="gap"):
            restore(CONFIG, tmp_path, "run000000001")


# ---------------------------------------------------------------- daemon


class TestServeDaemon:
    def test_refuses_fresh_run_over_existing_journal(self, tmp_path, trace_tasks):
        daemon = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
        )
        daemon.run(max_ticks=3)
        again = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
        )
        with pytest.raises(ServeError, match="--restore"):
            again.run()

    def test_watchdog_retries_are_digest_invisible(self, tmp_path, trace_tasks):
        clean = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path / "clean",
            run_id="run000000001",
            clock=ManualClock(),
        )
        reference = clean.run(max_ticks=8)

        chaos = ServeChaos(
            None,
            table2_fleet(CONFIG.fleet_scale),
            CONFIG.tick_seconds,
            serve_faults=(ControlCrash(tick=3, attempts=2),),
        )
        crashy = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path / "crashy",
            run_id="run000000001",
            chaos=chaos,
            clock=ManualClock(),
        )
        summary = crashy.run(max_ticks=8)
        assert crashy.metrics.snapshot()["restarts"] == 2
        assert summary == reference

    @pytest.mark.parametrize(
        "crash_tick, resume_at",
        [(2, None), (8, None), (10, 6)],
        ids=["before_first_checkpoint", "on_checkpoint_boundary", "after_restore"],
    )
    def test_watchdog_rolls_back_a_half_applied_tick(
        self, tmp_path, trace_tasks, monkeypatch, crash_tick, resume_at
    ):
        ticks = 12
        reference = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path / "clean",
            run_id="run000000001",
            clock=ManualClock(),
        ).run(max_ticks=ticks)

        def daemon():
            return ServeDaemon(
                CONFIG,
                make_feeder(trace_tasks),
                state_dir=tmp_path / "crashy",
                run_id="run000000001",
                clock=ManualClock(),
            )

        if resume_at is not None:
            daemon().run(max_ticks=resume_at)
        # Fail once *after* the decision stack ran: the classifier, the
        # running set, the predictors, guard and ladder are all mutated,
        # so only a real rollback makes the retry digest-invisible.
        crash_time = list(make_feeder(trace_tasks).batches())[crash_tick].time
        original = ControlPipeline.decide
        fired = []

        def flaky_decide(pipeline, view):
            decision = original(pipeline, view)
            if view.time == crash_time and not fired:
                fired.append(view.time)
                raise ControlStepFailed("injected mid-tick crash", time=view.time)
            return decision

        monkeypatch.setattr(ControlPipeline, "decide", flaky_decide)
        crashy = daemon()
        summary = crashy.run(
            restore_state=resume_at is not None,
            max_ticks=ticks - (resume_at or 0),
        )
        assert fired == [crash_time]
        assert crashy.metrics.snapshot()["restarts"] == 1
        assert summary == reference

    def test_watchdog_exhaustion_fails_loudly_but_recoverably(
        self, tmp_path, trace_tasks
    ):
        config = ServeConfig(
            checkpoint_interval_ticks=4, watchdog_attempts=2,
            watchdog_backoff_base_seconds=0.0,
        )
        chaos = ServeChaos(
            None,
            table2_fleet(config.fleet_scale),
            config.tick_seconds,
            serve_faults=(ControlCrash(tick=5, attempts=99),),
        )
        doomed = ServeDaemon(
            config,
            ReplayFeeder(trace_tasks, horizon=HORIZON, tick_seconds=300.0),
            state_dir=tmp_path,
            run_id="run000000001",
            chaos=chaos,
            clock=ManualClock(),
        )
        with pytest.raises(ControlStepFailed, match="--restore"):
            doomed.run()
        # Disk state is consistent: a restore (without the sabotage)
        # finishes the window and matches a clean run.
        reference = ServeDaemon(
            config,
            ReplayFeeder(trace_tasks, horizon=HORIZON, tick_seconds=300.0),
            state_dir=tmp_path / "ref",
            run_id="run000000001",
            clock=ManualClock(),
        ).run()
        resumed = ServeDaemon(
            config,
            ReplayFeeder(trace_tasks, horizon=HORIZON, tick_seconds=300.0),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
        )
        summary = resumed.run(restore_state=True)
        assert summary == reference

    def test_event_log_records_lifecycle(self, tmp_path, trace_tasks):
        daemon = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
        )
        daemon.run(max_ticks=5)
        events = [
            json.loads(line)["event"]
            for line in daemon.events.path.read_text().splitlines()
        ]
        assert events[0] == "started"
        assert "tick" in events
        assert "checkpoint" in events
        assert events[-1] == "drained"

    def test_hot_reload_swaps_ops_and_rejects_drift(self, tmp_path, trace_tasks):
        config_path = tmp_path / "serve.json"
        config_path.write_text(json.dumps({"checkpoint_interval_ticks": 4}))
        daemon = ServeDaemon(
            load_config_file(config_path),
            make_feeder(trace_tasks),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
            config_path=config_path,
        )
        # Valid ops change: picked up via the reload request.
        config_path.write_text(json.dumps({"checkpoint_interval_ticks": 2}))
        daemon.request_reload()
        daemon.run(max_ticks=2)
        assert daemon.config.checkpoint_interval_ticks == 2
        assert daemon.metrics.snapshot()["config_reloads"] == 1

        # Deterministic drift: rejected, old config stays live.
        config_path.write_text(
            json.dumps({"tick_seconds": 60.0, "checkpoint_interval_ticks": 2})
        )
        daemon.request_reload()
        daemon._maybe_reload()
        assert daemon.config.tick_seconds == 300.0
        assert daemon.metrics.snapshot()["config_reload_rejections"] == 1


# ------------------------------------------------------------------ http


class TestHealthEndpoints:
    def get(self, port, path):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=5.0
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_endpoints_track_loop_liveness(self):
        clock = ManualClock()
        metrics = ServeMetrics(clock)
        server = HealthServer(metrics, port=0, health_stale_seconds=60.0)
        server.start()
        try:
            status, body = self.get(server.port, "/healthz")
            assert (status, body) == (503, {"healthy": False})
            assert self.get(server.port, "/readyz")[0] == 503

            metrics.update(ticks=1, rung=0, rung_name="mpc", chain="abc")
            metrics.tick_completed()
            assert self.get(server.port, "/healthz")[0] == 200
            assert self.get(server.port, "/readyz")[0] == 200
            status, body = self.get(server.port, "/metrics")
            assert status == 200
            assert body["ticks"] == 1
            assert body["rung_name"] == "mpc"
            assert body["drained"] is False

            # A stuck loop goes unhealthy after the staleness budget...
            clock.advance(120.0)
            assert self.get(server.port, "/healthz")[0] == 503
            # ...but a clean drain is healthy forever.
            metrics.mark_draining()
            metrics.mark_drained()
            assert self.get(server.port, "/healthz")[0] == 200
            assert self.get(server.port, "/readyz")[0] == 503
            assert self.get(server.port, "/nope")[0] == 404
        finally:
            server.stop()

    def test_daemon_serves_http_while_running(self, tmp_path, trace_tasks):
        daemon = ServeDaemon(
            CONFIG,
            make_feeder(trace_tasks),
            state_dir=tmp_path,
            run_id="run000000001",
            clock=ManualClock(),
            http_port=0,
        )
        daemon.run(max_ticks=4)
        # Server is stopped at shutdown; the metrics object retains the
        # final snapshot.
        snapshot = daemon.metrics.snapshot()
        assert snapshot["ticks"] == 4
        assert snapshot["drained"] is True
        assert snapshot["chain"] == daemon.state.chain
