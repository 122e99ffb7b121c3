"""HARMONY: dynamic heterogeneity-aware resource provisioning in the cloud.

A full reproduction of Zhang, Zhani, Boutaba and Hellerstein,
*HARMONY: Dynamic Heterogeneity-Aware Resource Provisioning in the Cloud*
(ICDCS 2013), including every substrate the paper depends on:

- :mod:`repro.trace` -- a Google-clusterdata-like trace substrate with a
  statistically calibrated synthetic generator.
- :mod:`repro.clustering` -- K-means (k-means++ / Lloyd) built from scratch.
- :mod:`repro.classification` -- the paper's two-step task characterization
  and run-time labeling (Section V).
- :mod:`repro.forecasting` -- ARIMA and baseline arrival-rate predictors
  (Section VI).
- :mod:`repro.queueing` -- the M/G/N scheduling-delay model (Eqs. 1-2).
- :mod:`repro.containers` -- statistical-multiplexing container sizing
  (Eq. 3) and the container manager.
- :mod:`repro.energy` -- linear machine power model (Eq. 7) and the
  Table II server catalog.
- :mod:`repro.provisioning` -- CBS / CBS-RELAX / CBP, first-fit rounding
  (Lemma 1), the MPC controller (Algorithm 1) and the
  heterogeneity-oblivious baseline (Sections VII-IX).
- :mod:`repro.simulation` -- a discrete-event cluster simulator and the
  end-to-end HARMONY loop.
- :mod:`repro.analysis` -- ASCII rendering of figure/table data.

Quickstart::

    from repro import HarmonySimulation, HarmonyConfig
    from repro.trace import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(horizon_hours=24, seed=7))
    sim = HarmonySimulation(HarmonyConfig(), trace)
    result = sim.run()
    print(result.summary())
"""

# numpy 2 imports ``numpy.random`` and ``numpy.ma`` on first attribute
# access; every trace build reaches both (the generator's RNG, and the
# masked-array check inside ``np.unique``).  Importing them with the
# package keeps that one-time cost out of the first trace build.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.version import __version__

from repro.trace import (
    PriorityGroup,
    Task,
    Job,
    MachineType,
    Trace,
    SyntheticTraceConfig,
    generate_trace,
)
from repro.clustering import KMeans, KMeansResult, select_k_elbow
from repro.classification import TaskClassifier, TaskClass
from repro.forecasting import ArimaModel, fit_arima, make_predictor
from repro.queueing import MGNQueue, erlang_c, required_containers
from repro.containers import ContainerSpec, ContainerManager, gaussian_container_size
from repro.energy import MachineModel, LinearPowerModel, table2_fleet
from repro.provisioning import (
    ProvisioningProblem,
    CbsRelaxSolver,
    FirstFitRounder,
    HarmonyController,
    BaselineProvisioner,
    CbpController,
)
from repro.resilience import (
    CorrelatedOutage,
    FaultPlan,
    GuardedController,
    MachineDegradation,
    MonitoringBlackout,
    RandomMachineFailures,
)
from repro.simulation import (
    ClusterSimulator,
    HarmonySimulation,
    HarmonyConfig,
    SimulationResult,
)

__all__ = [
    "__version__",
    # trace
    "PriorityGroup",
    "Task",
    "Job",
    "MachineType",
    "Trace",
    "SyntheticTraceConfig",
    "generate_trace",
    # clustering
    "KMeans",
    "KMeansResult",
    "select_k_elbow",
    # classification
    "TaskClassifier",
    "TaskClass",
    # forecasting
    "ArimaModel",
    "fit_arima",
    "make_predictor",
    # queueing
    "MGNQueue",
    "erlang_c",
    "required_containers",
    # containers
    "ContainerSpec",
    "ContainerManager",
    "gaussian_container_size",
    # energy
    "MachineModel",
    "LinearPowerModel",
    "table2_fleet",
    # provisioning
    "ProvisioningProblem",
    "CbsRelaxSolver",
    "FirstFitRounder",
    "HarmonyController",
    "BaselineProvisioner",
    "CbpController",
    # simulation
    "ClusterSimulator",
    "HarmonySimulation",
    "HarmonyConfig",
    "SimulationResult",
    # resilience
    "FaultPlan",
    "CorrelatedOutage",
    "MachineDegradation",
    "MonitoringBlackout",
    "RandomMachineFailures",
    "GuardedController",
]
