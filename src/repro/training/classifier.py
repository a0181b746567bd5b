"""MLP error detector trained per attribute via an MLlib pipeline (§III-D).

The paper trains a simple two-layer MLP with cross-entropy loss per
attribute over the constructed training data and applies it to every cell.
Here each attribute's detector is a
``pyspark.ml.classification.MultilayerPerceptronClassifier`` (layers
``[dim, hidden, 2]``) fit on a Spark DataFrame of (features, label) rows —
propagated real cells plus LLM-augmented synthetic cells — and applied to
the full featurized table. Attributes whose training pool is single-class
degenerate to a constant predictor (nothing for an MLP to learn).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.ml.classification import MultilayerPerceptronClassifier
from pyspark.ml.linalg import Vectors
from pyspark.sql import SparkSession

from repro.features.assemble import FeatureContext, featurize_rows
from repro.training.construct import AttrTrainingData


def train_predict_attribute(
    spark: SparkSession,
    ctx: FeatureContext,
    attr: str,
    td: AttrTrainingData,
    X_full: np.ndarray,
    *,
    hidden: int = 16,
    max_iter: int = 60,
    seed: int = 0,
) -> np.ndarray:
    """Fit the attribute's MLP and predict an error flag for every row."""
    X_parts = [X_full[td.real_positions]] if td.real_positions else []
    y_parts = [np.array(td.real_labels, dtype=float)] if td.real_labels else []
    if td.synth_rows:
        X_parts.append(featurize_rows(ctx, td.synth_rows, [attr])[attr])
        y_parts.append(np.ones(len(td.synth_rows)))
    if not X_parts:
        return np.zeros(X_full.shape[0], dtype=bool)
    X_train = np.vstack(X_parts)
    y_train = np.concatenate(y_parts)
    classes = set(np.unique(y_train))
    if len(classes) < 2:
        only = bool(classes.pop())
        return np.full(X_full.shape[0], only, dtype=bool)

    dim = X_train.shape[1]
    train_df = spark.createDataFrame(
        [(Vectors.dense(x), float(y)) for x, y in zip(X_train, y_train)],
        ["features", "label"],
    )
    mlp = MultilayerPerceptronClassifier(
        layers=[dim, hidden, 2], maxIter=max_iter, seed=seed, blockSize=64
    )
    model = mlp.fit(train_df)
    full_df = spark.createDataFrame(
        [(int(i), Vectors.dense(x)) for i, x in enumerate(X_full)], ["idx", "features"]
    )
    pred = model.transform(full_df).select("idx", "prediction").toPandas()
    pred = pred.sort_values("idx")["prediction"].to_numpy()
    return pred.astype(bool)


def train_predict_all(
    spark: SparkSession,
    ctx: FeatureContext,
    training: dict[str, AttrTrainingData],
    feat_mats: dict[str, np.ndarray],
    *,
    hidden: int = 16,
    max_iter: int = 60,
    seed: int = 0,
) -> pd.DataFrame:
    """Detection mask (rows × attrs, bool) from per-attribute MLPs."""
    cols = {}
    for attr, td in training.items():
        cols[attr] = train_predict_attribute(
            spark, ctx, attr, td, feat_mats[attr],
            hidden=hidden, max_iter=max_iter, seed=seed,
        )
    return pd.DataFrame(cols)
