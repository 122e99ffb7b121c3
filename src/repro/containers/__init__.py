"""Container sizing and the container manager (Sections IV, VI, VII-A).

A *container* is a logical reservation of resources for one task of a given
class.  Sizing uses statistical multiplexing over the class's Gaussian
demand model (Eq. 3); counting inverts the M/G/N delay model so each class
meets its scheduling-delay SLO.
"""

from repro.containers.sizing import (
    ContainerSpec,
    gaussian_container_size,
    multiplexed_container_size,
    per_resource_epsilon,
    z_quantile,
    size_container_for_class,
)
from repro.containers.manager import (
    ContainerManager,
    ContainerManagerConfig,
    ContainerPlan,
)

__all__ = [
    "ContainerSpec",
    "gaussian_container_size",
    "multiplexed_container_size",
    "per_resource_epsilon",
    "z_quantile",
    "size_container_for_class",
    "ContainerManager",
    "ContainerManagerConfig",
    "ContainerPlan",
]
