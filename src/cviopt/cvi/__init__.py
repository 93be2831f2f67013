"""Cluster validity indices: full evaluation and incremental evaluators."""

from .evaluators import CVIEvaluator, evaluate, make_evaluator
from .indices import (
    ball_hall,
    calinski_harabasz,
    davies_bouldin,
    dunn_nn,
    gdunn,
    silhouette,
    silhouette_w,
    wcnn,
)
from .specs import FAMILIES, CVISpec, parse_spec

__all__ = [
    "CVIEvaluator",
    "CVISpec",
    "FAMILIES",
    "ball_hall",
    "calinski_harabasz",
    "davies_bouldin",
    "dunn_nn",
    "evaluate",
    "gdunn",
    "make_evaluator",
    "parse_spec",
    "silhouette",
    "silhouette_w",
    "wcnn",
]
