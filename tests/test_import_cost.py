"""What ``import repro`` costs, and the quantile function that keeps it low.

Every fleet shard, runner worker and CLI call imports the package once.
``scipy.stats`` alone costs about as much as the rest of the package, and
the package needs one function of it: the standard normal quantile, which
``scipy.special.ndtri`` computes directly.  ``scipy.optimize`` is imported
only where an ARIMA fit or a CBS-RELAX solve runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import ndtri

import repro
from repro.containers.sizing import z_quantile
from repro.trace.generator import _SIZE_CATALOG_POINTS


def test_import_repro_leaves_scipy_stats_and_optimize_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_ndtri_is_norm_ppf_on_the_size_catalog_ladder():
    levels = np.linspace(0.005, 0.995, _SIZE_CATALOG_POINTS)
    assert np.array_equal(ndtri(levels), stats.norm.ppf(levels))


def test_ndtri_is_norm_ppf_on_container_bounds():
    epsilons = np.concatenate(
        [np.geomspace(1e-15, 0.5, 20_000), np.linspace(1e-4, 0.999, 20_000)]
    )
    quantiles = 1.0 - epsilons
    assert np.array_equal(ndtri(quantiles), stats.norm.ppf(quantiles))
    for epsilon in epsilons[::997].tolist():
        assert z_quantile(epsilon) == float(stats.norm.ppf(1.0 - epsilon))
