"""The standard normal quantile, bit for bit what ``scipy.special.ndtri`` returns.

``ndtri(y)`` is the ``x`` with ``Phi(x) = y``.  The package needs it in two
places: the ``Z_{eps_r}`` of Eq. 3 container sizing
(:func:`repro.containers.sizing.z_quantile`) and the trace generator's
size-catalogue quantile ladder.  Importing ``scipy.special`` for it would
load ~19 MiB of scipy into every process that imports ``repro``; this
module imports only :mod:`math`.

It is the Cephes algorithm scipy compiles, operation for operation:

- ``y`` within ``exp(-2)`` of either end is folded onto the lower tail;
- the central region ``exp(-2) < y < 1 - exp(-2)`` uses the rational
  approximation ``P0/Q0`` in ``(y - 1/2)^2``;
- the tails use ``x = sqrt(-2 log y)``, then ``P1/Q1`` in ``1/x`` when
  ``x < 8`` (``y > exp(-32)``) and ``P2/Q2`` beyond;
- polynomials are evaluated in Horner order by :func:`_polevl` and, for
  an implicit leading 1, :func:`_p1evl`.

``math.log`` and ``math.sqrt`` are the C library's ``log`` and ``sqrt``,
so each step rounds as the compiled code does.
``tests/test_import_cost.py`` compares the two with ``==`` on >500k inputs.
"""

from __future__ import annotations

import math

#: sqrt(2 pi)
_S2PI = 2.50662827463100050242e0

#: exp(-2), the split between the central and the tail approximations.
_EXP_MINUS_2 = 0.13533528323661269189

# Central region, 0 <= |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)

# z = sqrt(-2 log y) between 2 and 8: y between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)

# z = sqrt(-2 log y) between 8 and 64: y between exp(-32) and exp(-2048).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """``coef[0] x^n + ... + coef[n]`` in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """The standard normal quantile: ``x`` with ``Phi(x) = y0``.

    ``-inf`` at 0, ``inf`` at 1, NaN outside ``[0, 1]`` (and for NaN).
    """
    if not 0.0 < y0 < 1.0:
        if not 0.0 <= y0 <= 1.0:
            return math.nan
        return -math.inf if y0 < 0.5 else math.inf
    upper = y0 > 1.0 - _EXP_MINUS_2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return x if upper else -x
