"""Task characterization and run-time classification (Section V).

Two-step scheme:

1. per priority group, K-means on static features (log CPU, log memory
   request) yields *static classes*;
2. each static class is split into *short* and *long* sub-classes by a
   second K-means (k=2) on log duration.

At run time every arriving task is labeled with the nearest static centroid
and initially assumed *short*; :meth:`TaskClassifier.classify` relabels it
*long* once its observed running time crosses the class's split boundary — the
paper's observation that "tasks are either short or long, and the majority
are short" keeps the transient labeling error small.
"""

from repro.classification.classifier import (
    DurationCategory,
    TaskClass,
    StaticClass,
    TaskClassifier,
    ClassifierConfig,
)
from repro.classification.features import static_features

__all__ = [
    "DurationCategory",
    "TaskClass",
    "StaticClass",
    "TaskClassifier",
    "ClassifierConfig",
    "static_features",
]
