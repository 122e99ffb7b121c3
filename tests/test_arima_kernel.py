"""Differential test: the ARIMA fit kernel against its frozen reference.

``repro.forecasting.arima`` runs the CSS recursion on Python floats and hands
L-BFGS-B its own forward-difference gradient; ``tests/reference_arima.py`` is
the numpy-scalar recursion with scipy's finite differences it replaced.  The
two must agree to the last bit (``np.array_equal``, never ``allclose``): the
simulation digests hang off the fitted coefficients, so a changed operation
order, step size or evaluation budget has to fail here, loudly, and so does a
future scipy that changes its default step.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forecasting.arima import _css_residuals, fit_arima
from tests import reference_arima as reference

ORDERS = [(2, 0, 1), (1, 0, 0), (0, 0, 1), (1, 1, 1), (2, 1, 0), (0, 1, 1), (0, 2, 0)]


def _series(name: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, *name.encode()])
    if name.startswith("poisson_"):
        return rng.poisson(float(name.removeprefix("poisson_")), n).astype(float)
    if name == "random_walk":
        return np.cumsum(rng.normal(size=n))
    if name == "constant":
        return np.full(n, 7.0)
    if name == "zeros":
        return np.zeros(n)
    # Residuals near 1e152 square past the float range (the 1e30 penalty
    # branch), and the intercept is so large that x + 1e-8 == x (the relative
    # fallback step of the forward difference).
    assert name == "scaled_1e150"
    return rng.poisson(300.0, n) * 1e150


SERIES = [
    "poisson_0.3", "poisson_3", "poisson_30", "poisson_300",
    "random_walk", "constant", "zeros", "scaled_1e150",
]


def assert_same_fit(series: np.ndarray, order: tuple[int, int, int]) -> None:
    with np.errstate(all="ignore"):
        intercept, phi, theta, residuals = reference.fit_css(series, order)
        expected = reference.forecast(series, order, intercept, phi, theta, 4)
        model = fit_arima(series, order)
        assert model.intercept == intercept
        assert np.array_equal(model.phi, phi)
        assert np.array_equal(model.theta, theta)
        assert np.array_equal(model.residuals, residuals, equal_nan=True)
        assert np.array_equal(model.forecast(4), expected, equal_nan=True)
        assert np.array_equal(model.forecast_from(series, 4), expected, equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 20, 96])
def test_kernel_matches_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for p, q in itertools.product(range(4), repeat=2):
        # 0.4: a stationary recursion; 30: one that overflows by n = 96.
        for scale in (0.4, 30.0):
            w = rng.poisson(5.0, n) * rng.choice([1.0, 1e-3, 1e100])
            phi = rng.normal(scale=scale, size=p)
            theta = rng.normal(scale=scale, size=q)
            intercept = float(rng.normal(scale=5.0))
            with np.errstate(all="ignore"):
                expected = reference.css_residuals(w, phi, theta, intercept)
                actual = _css_residuals(w, phi.tolist(), theta.tolist(), intercept)
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert np.array_equal(actual, expected, equal_nan=True), (n, p, q, scale)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@pytest.mark.parametrize("name", SERIES)
def test_fit_matches_reference_bit_for_bit(name, order):
    for n in (16, 48):
        assert_same_fit(_series(name, n), order)


def test_scaled_series_reaches_the_penalty_branch(monkeypatch):
    """The 1e150 case is only a test of the penalty if it gets there."""
    overflowed = []
    kernel = reference.css_residuals

    def spy(w, phi, theta, intercept):
        residuals = kernel(w, phi, theta, intercept)
        overflowed.append(not np.isfinite(residuals @ residuals))
        return residuals

    monkeypatch.setattr(reference, "css_residuals", spy)
    with np.errstate(all="ignore"):
        reference.fit_css(_series("scaled_1e150", 16), (2, 0, 1))
    assert any(overflowed) and not all(overflowed)


def test_exhausted_evaluation_budget_matches_reference():
    """L-BFGS-B gives up after 15000 objective evaluations on this one.

    scipy counts its own finite-difference evaluations against ``maxfun``;
    the one-pass gradient must spend the same budget to stop at the same
    iterate.
    """
    series = np.array(
        [5, 3, 2, 6, 3, 4, 0, 3, 5, 0, 5, 1, 4, 4, 2, 3, 4, 5, 4, 2, 4, 3, 1, 1],
        dtype=float,
    )
    assert_same_fit(series, (3, 0, 3))


@settings(max_examples=25, deadline=None)
@given(
    series=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64),
        min_size=6,
        max_size=96,
    ),
    order=st.sampled_from(ORDERS),
)
def test_fit_matches_reference_on_random_series(series, order):
    assert_same_fit(np.array(series), order)
