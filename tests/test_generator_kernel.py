"""Differential test: the trace generator's column kernel against its frozen
reference.

``repro.trace.generator`` builds each arrival bin as columns: one batched
``rng.lognormal`` per job for the duration jitters, ``bisect_right`` on a
precomputed CDF for every categorical draw, the memory-scale chain applied
to a column under a shrinking "not modal yet" mask, and ``_demand_p90s``
accumulating with ordered ``np.add.at`` calls; ``Task`` objects are built
once, from the final columns.  ``tests/reference_generator.py`` is the
scalar, object-building loop it replaced.  The two must agree to the last
bit (``==`` / ``np.array_equal``, never a tolerance): every trace digest,
classifier and replay hangs off these tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest

from repro.trace import PriorityGroup, Task
from repro.trace.generator import (
    SyntheticTraceConfig,
    _Block,
    _choice_cdf,
    _choice_index,
    _demand_p90s,
    _iter_blocks,
    _modal_points,
    _normalized,
    _scaled_memory,
    _scheduling_class_for,
    _SizeCatalog,
    generate_trace,
    google_like_machine_census,
    plan_trace,
    stream_trace,
)
from tests import reference_generator as reference

FIELDS = Task.__dataclass_fields__


@dataclass(frozen=True)
class Case:
    name: str
    config: SyntheticTraceConfig
    #: Length of the calibrated memory-scale chain.
    chain: int
    #: Whether a corrective load rescale fired.
    rescaled: bool = True


def _config(seed, machines, hours, **kwargs) -> SyntheticTraceConfig:
    return SyntheticTraceConfig(
        seed=seed, total_machines=machines, horizon_hours=hours, **kwargs
    )


CASES = [
    Case("chain1", _config(0, 100, 0.5), chain=1),
    Case("chain2", _config(2, 100, 0.5), chain=2),
    Case("chain3", _config(3, 100, 0.5), chain=3),
    Case("chain2-low-load", _config(7, 120, 1.0, load_factor=0.3), chain=2),
    Case("chain0", _config(1, 200, 1.0, load_factor=0.7), chain=0),
    Case("chain0-high-load", _config(13, 150, 0.5, load_factor=0.9), chain=0),
    # So sparse that the p90 demand is 0: calibration stops at once.
    Case("no-demand", _config(3, 120, 1.0, load_factor=0.3), chain=0, rescaled=False),
    Case(
        "constrained",
        _config(
            11, 150, 0.5, load_factor=0.9, constrained_fraction=0.3,
            constraint_platforms=google_like_machine_census(150)[:4],
        ),
        chain=1,
    ),
    Case(
        "constrained-default-share",
        _config(
            5, 150, 0.5, load_factor=0.9,
            constraint_platforms=google_like_machine_census(150)[:4],
        ),
        chain=1,
    ),
    # 5 s arrival bins: most bins draw no job at all.
    Case(
        "zero-job-bins",
        _config(1, 100, 0.5, load_factor=0.3, arrival_bin_seconds=5.0),
        chain=1,
    ),
    Case("singleton-jobs", _config(2, 100, 0.5, mean_job_tasks=1.0), chain=1),
]


@cache
def expected(case: Case):
    """The reference's (tasks, plan) for one case, computed once."""
    return reference.generate_trace(case.config).tasks, reference.plan_trace(case.config)


def assert_same_tasks(actual, expected_tasks) -> None:
    assert len(actual) == len(expected_tasks)
    assert tuple(actual) == tuple(expected_tasks)
    # Python scalars, not numpy ones: CSV text and digests see the type.
    for got, want in zip(actual, expected_tasks):
        for name in FIELDS:
            assert type(getattr(got, name)) is type(getattr(want, name)), name


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_trace_and_plan_match_reference(case):
    tasks, plan = expected(case)
    assert_same_tasks(generate_trace(case.config).tasks, tasks)
    assert plan_trace(case.config) == plan
    assert_same_tasks(list(stream_trace(case.config, plan=plan)), tasks)

    # The case covers what its name says.
    assert len(plan.memory_scales) == case.chain
    analytic = [p.job_rate_per_hour for p in case.config.scaled_profiles()]
    assert ([p.job_rate_per_hour for p in plan.profiles] != analytic) is case.rescaled


def test_cases_cover_constraints_and_empty_bins():
    by_name = {case.name: case for case in CASES}
    tasks, _ = expected(by_name["constrained"])
    assert sum(t.allowed_platforms is not None for t in tasks) > 100
    config = by_name["zero-job-bins"].config
    _, plan = expected(by_name["zero-job-bins"])
    sizes = [
        len(block.job_id)
        for block in _iter_blocks(config, config.census(), plan.profiles, 1800.0)
    ]
    assert 0 in sizes and sum(sizes) > 0


def _concatenated(blocks) -> _Block:
    return _Block(*map(np.concatenate, zip(*blocks)))


@pytest.mark.parametrize(
    "scales",
    [(), (1.3,), (1.3, 0.6), (8.0, 0.25, 2.0)],
    ids=lambda scales: f"chain{len(scales)}",
)
def test_demand_p90s_match_the_scalar_loop(scales):
    config = CASES[3].config
    census, horizon_s = config.census(), config.horizon_hours * 3600.0
    profiles = config.scaled_profiles()
    modal = _modal_points(profiles)
    tasks = reference._generate_tasks(config, census, profiles, horizon_s)
    want = reference._demand_p90s(tasks, horizon_s, scales, modal)
    blocks = list(_iter_blocks(config, census, profiles, horizon_s))
    # Bin by bin (plan_trace) and as one block (generate_trace).
    assert _demand_p90s(blocks, horizon_s, scales, modal) == want
    assert _demand_p90s([_concatenated(blocks)], horizon_s, scales, modal) == want


def test_memory_chain_matches_the_scalar_chain():
    modal = _modal_points(SyntheticTraceConfig().profiles)
    (mode_cpu, mode_memory), = modal
    rng = np.random.default_rng(4)
    cpu = np.concatenate([rng.uniform(0.001, 1.0, 500), np.full(6, mode_cpu)])
    memory = np.concatenate([rng.uniform(0.001, 1.0, 500), np.full(6, mode_memory)])
    memory[-3:] = mode_memory / 2.0  # modal only after a x2.0 step
    for scales in [(), (2.0,), (2.0, 3.0), (0.25, 8.0, 0.5), (2.0, 1.0, 3.0)]:
        want = [reference._scaled_memory(c, m, scales, modal) for c, m in zip(cpu, memory)]
        got = _scaled_memory(cpu, memory, scales, modal)
        assert np.array_equal(got, np.array(want))
    # The x2.0 step makes those tasks modal, and the chain then leaves them be.
    assert np.all(_scaled_memory(cpu, memory, (2.0, 3.0), modal)[-3:] == mode_memory)


def _choice_tables():
    """Weights the generator draws from, plus off-unit-sum and zero weights."""
    rng = np.random.default_rng(0)
    for profile in SyntheticTraceConfig().profiles:
        group = profile.group.name
        yield pytest.param(_SizeCatalog(profile, rng).weights, id=f"catalog-{group}")
        yield pytest.param(_normalized(profile.priority_weights), id=f"priority-{group}")
    # float32 weights may sum 3e-4 away from 1 and choice still takes them,
    # so the final division moves every CDF step by a drawable amount.
    yield pytest.param(np.full(40, 1.0003 / 40, dtype=np.float32), id="float32-off-sum")
    yield pytest.param(np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0]), id="with-zeros")


@pytest.mark.parametrize("weights", list(_choice_tables()))
def test_choice_index_matches_generator_choice(weights):
    cdf = _choice_cdf(weights)
    ours, numpys = np.random.default_rng(17), np.random.default_rng(17)
    scalar = [_choice_index(ours, cdf) for _ in range(500)]
    assert scalar == [int(numpys.choice(len(weights), p=weights)) for _ in range(500)]
    batch = [_choice_index(ours, cdf) for _ in range(20_000)]
    assert np.array_equal(batch, numpys.choice(len(weights), p=weights, size=20_000))
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("group", list(PriorityGroup), ids=lambda g: g.name)
def test_categorical_draws_match_reference(group):
    profile = next(p for p in SyntheticTraceConfig().profiles if p.group is group)
    catalog = _SizeCatalog(profile, np.random.default_rng(1))
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(2000):
        assert catalog.sample(ours) == reference.catalog_sample(catalog, theirs)
        assert _scheduling_class_for(ours, group) == reference._scheduling_class_for(
            theirs, group
        )
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("size", [1, 2, 7, 250])
def test_batched_lognormal_matches_scalar_draws(size):
    for seed in range(3):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = batched.lognormal(0.0, 0.25, size=size)
        assert np.array_equal(draws, [scalar.lognormal(0.0, 0.25) for _ in range(size)])
        assert batched.bit_generator.state == scalar.bit_generator.state
