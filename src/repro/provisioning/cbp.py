"""CBP: container-based provisioning (Section VIII-B).

The deployable variant of CBS: CBS-RELAX still decides *how many machines of
each type* to provision, but the fractional machine counts and per-type
container assignments are simply rounded to the nearest integer — no
coordinated bin-packing — and the cluster's *existing* scheduler keeps its
own algorithm (e.g. first-fit), constrained only to keep the number of type-n
tasks on type-m machines below ``x^{mn}_t``.

CBP therefore trades CBS's delay guarantee for deployment simplicity, which
is exactly the gap Figs. 21-26 measure.
"""

from __future__ import annotations

import numpy as np

from repro.provisioning.controller import HarmonyController, ProvisioningDecision
from repro.provisioning.rounding import _largest_remainder_targets


class CbpController(HarmonyController):
    """CBS-RELAX provisioning with nearest-integer rounding (no packing).

    Shares the predictor/queueing/LP machinery with
    :class:`HarmonyController`; only the realization step differs.
    """

    def decide(
        self,
        now: float,
        backlog: dict[int, int] | None = None,
        available: dict[int, int] | None = None,
        running: dict[int, int] | None = None,
        running_by_platform: dict[int, dict[int, int]] | None = None,
        powered: dict[int, int] | None = None,
    ) -> ProvisioningDecision:
        _problem, solution, demand = self._solve_relaxation(
            now, backlog, available, running, running_by_platform, powered
        )
        self.last_solution = solution
        self.last_plan = None  # CBP performs no packing

        # Round delta/sigma to integer values (Section VIII-B): machines per
        # type (nearest int, rounded up so fractional provisioning is not
        # silently lost) and container quotas per (type, class) via
        # largest-remainder so thin classes keep their column totals.
        z = np.ceil(solution.z[0] - 0.5 + 1e-9).astype(int)
        x = _largest_remainder_targets(solution.x[0])
        active: dict[int, int] = {}
        quotas: dict[int, dict[int, int]] = {}
        for m, model in enumerate(self.machine_models):
            cap = model.count if available is None else available.get(model.platform_id, model.count)
            active[model.platform_id] = int(min(max(z[m], 0), cap))
            quotas[model.platform_id] = {
                self.class_ids[n]: int(x[m, n])
                for n in range(len(self.class_ids))
                if x[m, n] > 0
            }

        decision = ProvisioningDecision(
            time=now,
            active=active,
            quotas=quotas,
            demand={
                self.class_ids[n]: float(demand[0, n]) for n in range(len(self.class_ids))
            },
            dropped={},
            objective=solution.objective,
        )
        self._previous_active = np.array(
            [active[model.platform_id] for model in self.machine_models], dtype=float
        )
        self.decisions.append(decision)
        return decision
