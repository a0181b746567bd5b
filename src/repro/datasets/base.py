"""Dataset container shared by the whole reproduction.

A :class:`Dataset` carries the dirty and clean versions of a table (all
cells normalized to strings, missing = ``""``), plus the side metadata the
*baselines* consume: functional dependencies (NADEEF/Katara/RV injection),
per-attribute regex patterns (NADEEF), a knowledge base (Katara), and which
attributes are numeric (dBoost, outlier injection).

ZeroED itself never reads the metadata or the clean table — only the dirty
table. The clean table is used exclusively by the evaluation metrics and by
baselines whose published form receives that input (e.g. Raha's 2 labeled
tuples).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

ROW_ID = "__row_id"


@dataclass
class Dataset:
    """One benchmark dataset: dirty/clean tables plus baseline metadata."""

    name: str
    dirty: pd.DataFrame
    clean: pd.DataFrame
    fds: list[tuple[str, str]] = field(default_factory=list)
    patterns: dict[str, str] = field(default_factory=dict)
    kb: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    numeric_attrs: list[str] = field(default_factory=list)
    # Attributes whose regex rules the public NADEEF rule sets would cover;
    # None means "all declared patterns". The published rule collections are
    # deliberately partial (the paper notes NADEEF's "limited but precise
    # pattern criteria" on Movies), so NADEEF sees only this subset.
    nadeef_attrs: list[str] | None = None
    error_types: pd.DataFrame | None = None  # "" or MV/T/PV/O/RV per cell

    @property
    def attrs(self) -> list[str]:
        return list(self.dirty.columns)

    @property
    def n_tuples(self) -> int:
        return len(self.dirty)

    @property
    def error_mask(self) -> pd.DataFrame:
        """Boolean frame: cell is erroneous iff dirty differs from clean."""
        return self.dirty.ne(self.clean)

    @property
    def error_rate(self) -> float:
        m = self.error_mask
        return float(m.to_numpy().sum()) / m.size

    def error_rate_by_type(self) -> dict[str, float]:
        """Fraction of all cells carrying each injected error type."""
        if self.error_types is None:
            return {}
        flat = self.error_types.to_numpy().ravel()
        n = flat.size
        out: dict[str, float] = {}
        for t in ("MV", "T", "PV", "O", "RV"):
            out[t] = float((flat == t).sum()) / n
        return out

    def dirty_spark(self, spark: SparkSession) -> DataFrame:
        """Dirty table as a Spark DataFrame with a stable ``__row_id`` column."""
        pdf = self.dirty.copy()
        pdf.insert(0, ROW_ID, range(len(pdf)))
        return spark.createDataFrame(pdf)


def map_in_pandas(
    sdf: DataFrame,
    fn: Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]],
    schema: StructType | str,
) -> DataFrame:
    """``sdf.mapInPandas(fn, schema)`` for any column names.

    PySpark resolves each input column of ``mapInPandas`` by name, which
    parses a dot as a field path, so the columns cross into Python under
    positional names and get their own names back in pandas.
    """
    names = sdf.columns

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return fn(pdf.set_axis(names, axis=1) for pdf in batches)

    return sdf.toDF(*(f"_{i}" for i in range(len(names)))).mapInPandas(run, schema=schema)


def stringify(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize every cell to a string; NaN/None become the empty string."""
    out = pdf.copy()
    for c in out.columns:
        col = out[c]
        if not pd.api.types.is_string_dtype(col):
            col = col.astype(object).map(
                lambda v: "" if v is None or (isinstance(v, float) and pd.isna(v)) else str(v)
            )
        out[c] = col.fillna("").astype(str)
    return out
