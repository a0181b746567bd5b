"""Experiment harnesses and the registry of paper tables.

Each ``tableN_rows`` runs the corresponding experiment at repro scale and
returns a list of row dicts carrying both our measured numbers and the
paper's (from :mod:`repro.exp.paper_numbers`). ``TABLES`` defines each
table once — title, columns, row function, closing note — and is what
``jobs/run_table.py`` and ``jobs/render_experiments.py`` iterate; both
render through ``format_rows``.

Repro scale: datasets are generated at ``REPRO_N`` tuples (vs the paper's
1 000–7 390) with Table II error *rates* preserved; Table V runs at a
smaller size because it sweeps 5 LLM tiers × 6 datasets.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from pyspark.sql import SparkSession

from repro.baselines import activeclean, dboost, fm_ed, katara, nadeef, raha
from repro.core.metrics import prf
from repro.core.zeroed import ZeroEDConfig, ZeroEDRunner, ablation_configs
from repro.datasets.registry import TABLE3_DATASETS, load_dataset
from repro.exp import paper_numbers as paper

REPRO_N = {
    "hospital": 300, "flights": 300, "beers": 300, "rayyan": 300,
    "billionaire": 300, "movies": 300, "tax": 300,
}
TABLE5_N = 250
TOKEN_SIZES = (500, 1000, 2000)

# Scale substitution: the paper labels 5 % of 1 000–7 390 tuples, i.e.
# ~50–370 representatives per attribute. At repro scale (300 tuples) the
# same *relative* rate would leave only 15 clusters per attribute, too few
# for propagation purity — 10 % restores a comparable absolute sampling
# density and empirically reproduces the paper's operating point.
REPRO_LABEL_RATE = 0.10

PRF = ("prec", "rec", "f1")


def repro_config(seed: int = 0, **overrides) -> ZeroEDConfig:
    """The default ZeroED configuration at repro scale."""
    return ZeroEDConfig(seed=seed, label_rate=REPRO_LABEL_RATE, **overrides)


def _tune_spark(spark: SparkSession) -> None:
    """Small-data settings for the harnesses (restored values don't matter
    for correctness — only shuffle width)."""
    spark.conf.set("spark.sql.shuffle.partitions", "8")


def format_rows(rows: list[dict], keys: list[str]) -> str:
    """A markdown table of ``rows`` over ``keys``; floats to 3 decimals."""

    def cell(v) -> str:
        return f"{v:.3f}" if isinstance(v, float) else str(v)

    lines = ["| " + " | ".join(keys) + " |", "|" + "---|" * len(keys)]
    lines += ["| " + " | ".join(cell(r.get(k, "")) for k in keys) + " |" for r in rows]
    return "\n".join(lines)


def _sweep(
    spark: SparkSession,
    key: str,
    datasets: Iterable[str],
    labels: Iterable[str],
    measure: Callable[[ZeroEDRunner, str], dict],
    paper_table: dict,
    seed: int,
    n: int | None = None,
) -> list[dict]:
    """The per-dataset loop of Tables III–VI: load → ``ZeroEDRunner`` →
    ``measure(runner, label)`` for each label → one row holding the measured
    columns and the paper's P/R/F1 for that label and dataset."""
    _tune_spark(spark)
    rows = []
    for name in datasets:
        ds = load_dataset(name, n=n or REPRO_N[name], seed=seed)
        runner = ZeroEDRunner(spark, ds)
        for label in labels:
            measured = measure(runner, label)
            pp = paper_table.get(label, {}).get(name) or (None,) * len(PRF)
            rows.append(
                {"dataset": name, key: label, **measured,
                 **{f"paper_{k}": v for k, v in zip(PRF, pp)}}
            )
    return rows


def _run_configs(configs: dict[str, ZeroEDConfig]) -> Callable[[ZeroEDRunner, str], dict]:
    """``measure`` for a sweep over labelled ZeroED configurations."""

    def measure(runner: ZeroEDRunner, label: str) -> dict:
        m = runner.run(configs[label]).metrics
        return {k: m[k] for k in PRF}

    return measure


# ------------------------------------------------------------------ Table II


def table2_rows(seed: int = 0) -> list[dict]:
    """Generated-dataset statistics vs the paper's Table II."""
    rows = []
    for name, (p_n, p_attrs, p_err) in paper.PAPER_TABLE2.items():
        ds = load_dataset(name, n=REPRO_N[name], seed=seed)
        by_type = ds.error_rate_by_type()
        rows.append(
            {
                "dataset": name,
                "tuples": ds.n_tuples, "attrs": len(ds.attrs),
                "err_pct": 100 * ds.error_rate,
                **{f"{t.lower()}_pct": 100 * v for t, v in by_type.items()},
                "paper_tuples": p_n, "paper_attrs": p_attrs, "paper_err_pct": p_err,
            }
        )
    return rows


# ----------------------------------------------------------------- Table III

BASELINES = ["dBoost", "Nadeef", "Katara", "ActiveClean", "Raha", "FM_ED"]


def _run_baseline(method: str, spark, ds, stats, seed: int):
    if method == "dBoost":
        return dboost.detect(spark, ds, stats)
    if method == "Nadeef":
        return nadeef.detect(spark, ds)
    if method == "Katara":
        return katara.detect(spark, ds)
    if method == "ActiveClean":
        return activeclean.detect(spark, ds, seed=seed)
    if method == "Raha":
        return raha.detect(spark, ds, stats, seed=seed)
    if method == "FM_ED":
        mask, _usage = fm_ed.detect(spark, ds, seed=seed)
        return mask
    raise ValueError(method)


def table3_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    methods: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """P/R/F1 of every method on every dataset (paper Table III)."""

    def measure(runner: ZeroEDRunner, method: str) -> dict:
        stats = runner._stats()  # shared with ZeroED; computed outside the timer
        t0 = time.time()
        if method == "ZeroED":
            m = runner.run(repro_config(seed)).metrics
        else:
            m = prf(_run_baseline(method, spark, runner.ds, stats, seed), runner.ds.error_mask)
        return {**{k: m[k] for k in PRF}, "seconds": time.time() - t0}

    methods = methods or BASELINES + ["ZeroED"]
    return _sweep(spark, "method", datasets, methods, measure, paper.PAPER_TABLE3, seed)


def mean_f1_ranking(rows: list[dict]) -> str:
    """Table III's closing line: methods ordered by measured mean F1."""
    by_m: dict[str, list[float]] = {}
    for r in rows:
        by_m.setdefault(r["method"], []).append(r["f1"])
    ranking = sorted(by_m, key=lambda m: -sum(by_m[m]) / len(by_m[m]))
    return f"Mean-F1 ranking (measured): {', '.join(ranking)}."


# ------------------------------------------------------------- Tables IV–VI


def table4_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    seed: int = 0,
) -> list[dict]:
    """Ablation study (paper Table IV); stages shared via ZeroEDRunner."""
    configs = ablation_configs(repro_config(seed))
    return _sweep(spark, "ablation", datasets, configs, _run_configs(configs),
                  paper.PAPER_TABLE4, seed)


def table5_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    models: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """ZeroED with different LLM tiers (paper Table V)."""
    configs = {m: repro_config(seed, model=m) for m in models or paper.PAPER_TABLE5}
    return _sweep(spark, "model", datasets, configs, _run_configs(configs),
                  paper.PAPER_TABLE5, seed, n=TABLE5_N)


def table6_rows(
    spark: SparkSession,
    datasets: tuple[str, ...] = ("flights", "billionaire", "movies"),
    methods: tuple[str, ...] = ("random", "agc", "kmeans"),
    seed: int = 0,
) -> list[dict]:
    """Sampling-method comparison (paper Table VI)."""
    configs = {m: repro_config(seed, sampling=m) for m in methods}
    return _sweep(spark, "sampling", datasets, configs, _run_configs(configs),
                  paper.PAPER_TABLE6, seed)


# ------------------------------------------------------- token cost (Fig. 8)


def token_cost_rows(
    spark: SparkSession,
    sizes: tuple[int, ...] = TOKEN_SIZES,
    seed: int = 0,
) -> list[dict]:
    """ZeroED vs FM_ED token usage on growing Tax subsets (Fig. 8's claim:
    up to ~90 % token reduction at scale).

    Uses the paper's 5 % label rate: token cost is the quantity under
    study, and the paper's budget rule (clusters = size × rate) is what
    produces its sublinear growth.
    """
    _tune_spark(spark)
    rows = []
    for n in sizes:
        ds = load_dataset("tax", n=n, seed=seed)
        res = ZeroEDRunner(spark, ds).run(ZeroEDConfig(seed=seed, label_rate=0.05))
        _mask, fm_usage = fm_ed.detect(spark, ds, seed=seed)
        z, f = res.usage.total_tokens, fm_usage.total_tokens
        rows.append(
            {
                "n_tuples": n,
                "zeroed_tokens": z, "fm_ed_tokens": f,
                "zeroed_in": res.usage.prompt_tokens,
                "zeroed_out": res.usage.completion_tokens,
                "fm_ed_in": fm_usage.prompt_tokens,
                "fm_ed_out": fm_usage.completion_tokens,
                "reduction_pct": 100.0 * (1 - z / f) if f else 0.0,
            }
        )
    return rows


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class PaperTable:
    """One paper table: how to compute its rows and how to print them."""

    title: str
    columns: list[str]
    compute: Callable[..., list[dict]]
    note: str = ""
    summary: Callable[[list[dict]], str] | None = None

    def render(self, rows: list[dict]) -> str:
        """Markdown section: title, table, then the summary line and note."""
        parts = [f"## {self.title}", format_rows(rows, self.columns)]
        if self.summary:
            parts.append(self.summary(rows))
        if self.note:
            parts.append(self.note)
        return "\n\n".join(parts) + "\n"


_PRF_COLUMNS = [*PRF, *(f"paper_{k}" for k in PRF)]

# Keyed by the name of the table's ``benchmarks/results/<name>.json``.
TABLES: dict[str, PaperTable] = {
    "table2": PaperTable(
        "Table II — dataset statistics",
        ["dataset", "tuples", "attrs", "err_pct", "mv_pct", "pv_pct", "t_pct",
         "o_pct", "rv_pct", "paper_tuples", "paper_attrs", "paper_err_pct"],
        table2_rows,
        note="Per-type rates split the overall Err% proportionally to the paper's\n"
        "per-type columns (which overlap in the original). Tax uses a 1% rate\n"
        "(0.11% of a 300-row subset would round to zero errors).",
    ),
    "table3": PaperTable(
        "Table III — method comparison (P / R / F1, measured | paper)",
        ["dataset", "method", *_PRF_COLUMNS],
        table3_rows,
        summary=mean_f1_ranking,
    ),
    "table4": PaperTable(
        "Table IV — ablations", ["dataset", "ablation", *_PRF_COLUMNS], table4_rows
    ),
    "table5": PaperTable(
        "Table V — LLM tiers", ["dataset", "model", *_PRF_COLUMNS], table5_rows
    ),
    "table6": PaperTable(
        "Table VI — sampling methods", ["dataset", "sampling", *_PRF_COLUMNS], table6_rows
    ),
    "tokens": PaperTable(
        "Token cost (Fig. 8's numbers) — ZeroED vs FM_ED on Tax subsets",
        ["n_tuples", "zeroed_tokens", "fm_ed_tokens", "reduction_pct",
         "zeroed_in", "zeroed_out", "fm_ed_in", "fm_ed_out"],
        token_cost_rows,
        note="FM_ED grows linearly in dataset size (one full-tuple prompt per\n"
        "tuple); ZeroED grows sublinearly (per-attribute prompts + a sampled\n"
        "labeling budget) — the same shape as the paper's Fig. 8, whose ~90%\n"
        "reduction is this trend at 200k tuples. One split differs: the\n"
        "paper's ZeroED is output-token-heavy because real LLMs emit verbose\n"
        "criteria/guideline text; our simulated completions are terse, so the\n"
        "repro's ZeroED cost is input-dominated.",
    ),
}
