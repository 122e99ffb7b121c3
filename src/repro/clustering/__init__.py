"""K-means clustering substrate.

The paper uses "standard K-means clustering" (Sections IV-V) to divide the
workload into task classes.  No clustering library is assumed: this package
implements Lloyd's algorithm with k-means++ seeding, feature scaling, and
k-selection heuristics from scratch.
"""

from repro.clustering.kmeans import KMeans, KMeansResult
from repro.clustering.scaling import LogScaler
from repro.clustering.selection import select_k_elbow, inertia_curve

__all__ = [
    "KMeans",
    "KMeansResult",
    "LogScaler",
    "select_k_elbow",
    "inertia_curve",
]
