"""CBS: container-based scheduling for dynamic capacity provisioning.

The paper's primary contribution (Sections VII-VIII):

- :mod:`repro.provisioning.model` -- the CBS problem data (machine types,
  container types, utility, prices, compatibility);
- :mod:`repro.provisioning.relax` -- the convex relaxation CBS-RELAX
  (Eq. 14-16) solved as a linear program;
- :mod:`repro.provisioning.rounding` -- Lemma 1's first-fit rounding of the
  fractional solution to an integer machine/container assignment;
- :mod:`repro.provisioning.controller` -- Algorithm 1, the MPC loop;
- :mod:`repro.provisioning.cbp` -- the deployable CBP variant
  (Section VIII-B) that only provisions machines and caps the native
  scheduler;
- :mod:`repro.provisioning.baseline` -- the heterogeneity-oblivious
  80%-bottleneck-utilization baseline of Section IX-B.
"""

from repro.provisioning.model import (
    ContainerType,
    MachineClass,
    ProvisioningProblem,
    UtilityFunction,
    build_problem,
)
from repro.provisioning.relax import CbsRelaxSolver, RelaxSolution
from repro.provisioning.rounding import (
    FirstFitRounder,
    MachineAssignment,
    RoundedPlan,
    first_fit_pack,
)
from repro.provisioning.controller import (
    HarmonyController,
    ControllerConfig,
    ProvisioningDecision,
)
from repro.provisioning.cbp import CbpController
from repro.provisioning.baseline import BaselineProvisioner, BaselineConfig
from repro.provisioning.migration import (
    Move,
    MigrationPlan,
    plan_consolidation,
    consolidation_savings,
)
from repro.provisioning.autoscaler import ThresholdAutoscaler, ThresholdConfig

__all__ = [
    "ContainerType",
    "MachineClass",
    "ProvisioningProblem",
    "UtilityFunction",
    "build_problem",
    "CbsRelaxSolver",
    "RelaxSolution",
    "FirstFitRounder",
    "MachineAssignment",
    "RoundedPlan",
    "first_fit_pack",
    "HarmonyController",
    "ControllerConfig",
    "ProvisioningDecision",
    "CbpController",
    "BaselineProvisioner",
    "BaselineConfig",
    "Move",
    "MigrationPlan",
    "plan_consolidation",
    "consolidation_savings",
    "ThresholdAutoscaler",
    "ThresholdConfig",
]
