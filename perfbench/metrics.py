"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same metrics; ``selftest.py`` checks that the
two agree. End-to-end metrics come from untraced iterations; per-layer
metrics from the traced run (``--trace 1``).
"""
from __future__ import annotations

# (name, unit, better) — printed with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("zeroed_f1", "ratio", "higher"),
    ("llm_tokens", "count", "lower"),
    ("llm_calls", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PURPOSES = (
    "criteria", "analysis_functions", "guideline", "labeling",
    "contrastive", "augmentation", "fm_ed",
)
BASELINES = ("dboost", "nadeef", "katara", "activeclean", "raha", "fm_ed")

# (metric name, span name, span aggregate key, unit, better): a sum over
# the spans of that name in one traced iteration
SPAN_METRICS = [
    ("training.mlp.self_s", "training.mlp", "self_s", "s", "lower"),
    ("training.mlp.spark_jobs", "training.mlp", "spark_jobs", "count", "lower"),
    ("training.mlp.fits", "training.mlp", "fits", "count", "lower"),
    ("sampling.self_s", "sampling", "self_s", "s", "lower"),
    ("sampling.spark_jobs", "sampling", "spark_jobs", "count", "lower"),
    ("sampling.fits", "sampling", "fits", "count", "lower"),
    ("sampling.clusters", "sampling", "clusters", "count", "higher"),
    ("training.construct.self_s", "training.construct", "self_s", "s", "lower"),
    ("training.construct.pool_rows", "training.construct", "pool_rows", "count", "higher"),
    ("training.construct.synth_rows", "training.construct", "synth_rows", "count", "lower"),
    ("training.construct.evicted", "training.construct", "evicted", "count", "lower"),
    ("features.stats.self_s", "features.stats", "self_s", "s", "lower"),
    ("features.stats.spark_jobs", "features.stats", "spark_jobs", "count", "lower"),
    ("features.stats.calls", "features.stats", "calls", "count", "lower"),
    ("features.stats.pair_keys", "features.stats", "pair_keys", "count", "lower"),
    ("features.correlation.self_s", "features.correlation", "self_s", "s", "lower"),
    ("features.featurize.self_s", "features.featurize", "self_s", "s", "lower"),
    ("features.featurize.spark_jobs", "features.featurize", "spark_jobs", "count", "lower"),
    ("features.featurize.calls", "features.featurize", "calls", "count", "lower"),
    ("features.featurize.cells", "features.featurize", "cells", "count", "lower"),
    ("llm.calls", "llm", "calls", "count", "lower"),
    ("llm.self_s", "llm", "self_s", "s", "lower"),
    ("llm.prompt_tokens", "llm", "prompt_tokens", "count", "lower"),
    ("llm.completion_tokens", "llm", "completion_tokens", "count", "lower"),
    *[(f"llm.tokens.{p}", "llm", f"tokens.{p}", "count", "lower") for p in PURPOSES],
    ("labeling.guidelines.self_s", "labeling.guidelines", "self_s", "s", "lower"),
    ("labeling.label.self_s", "labeling.label", "self_s", "s", "lower"),
    ("labeling.cells_labeled", "labeling.label", "cells_labeled", "count", "lower"),
    ("core.run.self_s", "core.run", "self_s", "s", "lower"),
    ("core.runs", "core.run", "runs", "count", "higher"),
    ("core.runner_init_s", "core.runner_init", "self_s", "s", "lower"),
    *[
        (f"baselines.{b}.{k}", f"baselines.{b}", k, u, "lower")
        for b in BASELINES
        for k, u in (("self_s", "s"), ("spark_jobs", "count"))
    ],
]

# computed by run.py from the trace, the run's set-up and the evaluation
DERIVED_METRICS = [
    ("training.mlp.jobs_per_fit", "count", "lower"),
    ("training.mlp.constant_attrs", "count", "lower"),
    ("labeling.label_accuracy", "ratio", "higher"),
    *[(f"baselines.{b}.f1", "ratio", "higher") for b in BASELINES],
    ("datasets.generate_s", "s", "lower"),
    ("setup.jvm_launch_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("spark.jobs", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
]

PER_LAYER = [(m, u, b) for m, _s, _k, u, b in SPAN_METRICS] + DERIVED_METRICS
