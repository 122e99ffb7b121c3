"""What ``import repro`` costs, and the quantile function that keeps it low.

Every CLI call imports the package once, and so does the executor's
worker template (the process runner workers and fleet shards are forked
from), which also preloads ``scipy.optimize`` on purpose.  ``import
repro`` itself loads numpy and no scipy module: the one special function it
needs, the standard normal quantile, is :func:`repro.normal.ndtri`, a port
of the Cephes routine behind ``scipy.special.ndtri`` that returns the same
float.  ``scipy.optimize`` (and with it ``scipy.sparse`` and
``scipy.special``) is imported only where a CBS/CBP solve or an ARIMA fit
runs.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import repro
from repro.containers.sizing import z_quantile
from repro.normal import ndtri
from repro.trace.generator import _SIZE_CATALOG_POINTS

#: Imports every entry point a process without an LP or an ARIMA fit uses,
#: runs a threshold and a baseline replay and a short serve daemon, then
#: prints the scipy modules loaded.
_NO_SOLVE_RUN = """
import sys, tempfile
import repro, repro.cli, repro.runner.tasks
from repro.serve import ManualClock, ReplayFeeder, ServeConfig, ServeDaemon
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.trace import SyntheticTraceConfig, generate_trace

trace = generate_trace(
    SyntheticTraceConfig(horizon_hours=0.25, total_machines=120, seed=3)
)
for policy in ("threshold", "baseline"):
    config = HarmonyConfig(policy=policy, predictor="ewma")
    assert HarmonySimulation(config, trace).run().summary()["tasks_submitted"] > 0
with tempfile.TemporaryDirectory() as state_dir:
    feeder = ReplayFeeder(trace.tasks, horizon=trace.horizon, tick_seconds=60.0)
    summary = ServeDaemon(
        ServeConfig(tick_seconds=60.0), feeder, state_dir=state_dir,
        run_id="noscipy00001", clock=ManualClock(),
    ).run()
    assert summary["ticks"] > 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run_fresh(code: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_import_repro_leaves_scipy_stats_and_optimize_unloaded():
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    assert _run_fresh(code) == "[]"


def test_runs_without_a_solve_load_no_scipy():
    assert _run_fresh(_NO_SOLVE_RUN) == "[]"


def test_ndtri_is_norm_ppf_on_the_size_catalog_ladder():
    levels = np.linspace(0.005, 0.995, _SIZE_CATALOG_POINTS)
    ours = np.array([ndtri(level) for level in levels.tolist()])
    assert np.array_equal(ours, stats.norm.ppf(levels))


def test_ndtri_is_norm_ppf_on_container_bounds():
    epsilons = np.concatenate(
        [np.geomspace(1e-15, 0.5, 20_000), np.linspace(1e-4, 0.999, 20_000)]
    )
    quantiles = 1.0 - epsilons
    ours = np.array([ndtri(q) for q in quantiles.tolist()])
    assert np.array_equal(ours, stats.norm.ppf(quantiles))
    for epsilon in epsilons[::997].tolist():
        assert z_quantile(epsilon) == float(stats.norm.ppf(1.0 - epsilon))


def _ndtri_inputs() -> np.ndarray:
    """Both tails to the ends of the doubles, the body, and every branch
    boundary (``exp(-2)``, ``1 - exp(-2)``, ``exp(-32)``) with its
    neighbours."""
    boundaries = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5]
    edges = [-0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    for b in boundaries + [0.0, 1.0]:
        edges += [math.nextafter(b, 0.0), b, math.nextafter(b, 1.0)]
    return np.concatenate(
        [
            np.random.default_rng(20130708).random(300_000),
            np.geomspace(1e-300, 0.5, 100_000),
            1.0 - np.geomspace(1e-16, 0.5, 100_000),
            np.linspace(0.0, 1.0, 10_001),
            np.array(edges),
        ]
    )


def test_ndtri_equals_scipy_bit_for_bit():
    inputs = _ndtri_inputs()
    assert len(inputs) >= 500_000
    ours = np.array([ndtri(y) for y in inputs.tolist()])
    assert np.array_equal(ours, special.ndtri(inputs))


@pytest.mark.parametrize(
    "y", [-1e-300, -0.5, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan]
)
def test_ndtri_is_nan_outside_the_unit_interval(y):
    assert math.isnan(ndtri(y))
    assert math.isnan(special.ndtri(y))
