"""Clustering-based representative sampling (paper §III-C, Table VI).

For each attribute, the cell-feature space is partitioned into
``s = n * label_rate`` clusters and the point nearest each centroid is the
representative the LLM labels. Three methods are compared in Table VI:

* ``kmeans`` — MLlib ``KMeans`` over the featurized Spark DataFrame (the
  default; scalable, favors dense regions),
* ``agc`` — average-linkage agglomerative clustering (driver-side
  Lance-Williams over the collected feature matrix; the paper's
  AGC baseline),
* ``random`` — random partition of rows into s groups with a random
  representative each (the paper's random-sampling baseline; label
  propagation over these arbitrary groups is what degrades it).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.ml.clustering import KMeans
from pyspark.ml.functions import array_to_vector
from pyspark.sql import DataFrame

from repro.datasets.base import ROW_ID, column


@dataclass
class AttrClustering:
    """Cluster assignment for one attribute, aligned with sorted row_ids."""

    assignments: np.ndarray  # (n,) cluster id per row position
    representatives: dict[int, int]  # cluster id -> row position of its rep

    @property
    def rep_positions(self) -> list[int]:
        return sorted(self.representatives.values())


def _nearest_to_center(X: np.ndarray, assign: np.ndarray, centers: dict[int, np.ndarray]) -> dict[int, int]:
    reps: dict[int, int] = {}
    for c, mu in centers.items():
        idx = np.flatnonzero(assign == c)
        if idx.size == 0:
            continue
        d = np.linalg.norm(X[idx] - mu, axis=1)
        reps[c] = int(idx[np.argmin(d)])
    return reps


def kmeans_clustering(
    feat_sdf: DataFrame, attr: str, X: np.ndarray, k: int, seed: int
) -> AttrClustering:
    """MLlib k-means over the featurized DataFrame; centroid-nearest reps."""
    n = X.shape[0]
    k = max(2, min(k, n))
    vec_df = feat_sdf.select(ROW_ID, array_to_vector(column(f"f_{attr}")).alias("features"))
    model = KMeans(k=k, seed=seed, maxIter=20).fit(vec_df)
    pred = (
        model.transform(vec_df)
        .select(ROW_ID, "prediction")
        .toPandas()
        .sort_values(ROW_ID)
    )
    assign = pred["prediction"].to_numpy()
    centers = {i: c for i, c in enumerate(model.clusterCenters())}
    return AttrClustering(assign, _nearest_to_center(X, assign, centers))


def agglomerative_clustering(X: np.ndarray, k: int) -> AttrClustering:
    """Average-linkage agglomerative clustering (Lance-Williams updates)."""
    n = X.shape[0]
    k = max(2, min(k, n))
    sq = np.sum(X**2, axis=1)
    D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for _ in range(n - k):
        # inactive rows/cols hold +inf, so a flat argmin scans the whole
        # matrix without re-slicing — O(n^2) per merge, vectorized
        i, j = divmod(int(np.argmin(D)), n)
        if i > j:
            i, j = j, i
        # average-linkage distance of merged (i∪j) to every other cluster
        new = (sizes[i] * D[i] + sizes[j] * D[j]) / (sizes[i] + sizes[j])
        D[i], D[:, i] = new, new
        D[i, i] = np.inf
        D[j], D[:, j] = np.inf, np.inf
        sizes[i] += sizes[j]
        members[i].extend(members.pop(j))
    assign = np.empty(n, dtype=int)
    reps: dict[int, int] = {}
    for cid, (root, idx) in enumerate(members.items()):
        idx_arr = np.array(idx)
        assign[idx_arr] = cid
        mu = X[idx_arr].mean(axis=0)
        reps[cid] = int(idx_arr[np.argmin(np.linalg.norm(X[idx_arr] - mu, axis=1))])
    return AttrClustering(assign, reps)


def random_clustering(n: int, k: int, seed: int) -> AttrClustering:
    """Random partition + random representative per group."""
    g = np.random.default_rng(seed)
    k = max(2, min(k, n))
    assign = g.integers(0, k, n)
    reps = {}
    for c in range(k):
        idx = np.flatnonzero(assign == c)
        if idx.size:
            reps[int(c)] = int(idx[int(g.integers(0, idx.size))])
    return AttrClustering(assign, reps)


def cluster_attribute(
    method: str,
    feat_sdf: DataFrame,
    attr: str,
    X: np.ndarray,
    k: int,
    seed: int,
) -> AttrClustering:
    if method == "kmeans":
        return kmeans_clustering(feat_sdf, attr, X, k, seed)
    if method == "agc":
        return agglomerative_clustering(X, k)
    if method == "random":
        return random_clustering(X.shape[0], k, seed)
    raise ValueError(f"unknown sampling method {method!r}")
