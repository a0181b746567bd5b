"""Reproduce one paper table and print it as markdown.

Usage: spark-submit jobs/run_table.py NAME [dataset ...]   (or plain ``python``
with ``PYTHONPATH=src``). NAME is a key of ``repro.exp.tables.TABLES``
(``table2`` … ``table6``, ``tokens``); a dataset list is accepted by the
tables whose ``compute`` takes ``datasets`` (``table3`` … ``table6``).
"""
from __future__ import annotations

import inspect
import sys

from pyspark.sql import SparkSession

from repro.exp.tables import TABLES


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(argv: list[str]) -> None:
    if not argv or argv[0] not in TABLES:
        sys.exit(f"usage: run_table.py NAME [dataset ...]; NAME is one of: {', '.join(TABLES)}")
    name, datasets = argv[0], argv[1:]
    table = TABLES[name]
    params = inspect.signature(table.compute).parameters
    if datasets and "datasets" not in params:
        sys.exit(f"{name} takes no dataset list")
    kwargs = {"datasets": datasets} if datasets else {}
    if "spark" in params:
        spark = get_spark(name)
        try:
            rows = table.compute(spark, **kwargs)
        finally:
            spark.stop()
    else:
        rows = table.compute(**kwargs)
    print(table.render(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
