"""The benchmark's workloads, built on the public API.

Each workload generates its table from the seed (``load_dataset``), keeps
a fixed subset of the attributes, and runs one iteration: ZeroED configs
on a fresh ``ZeroEDRunner``, then the baselines on the same table. The
program receives only the generated tables; the clean table and the error
mask are read only for evaluation, after the timed part.

Scale. The paper-scale iterations (hospital with 12 attributes, the five
flights ablations with 7) take 60-170 s each, because every attribute
costs two MLlib fits of dozens of small Spark jobs. A benchmark run must
fit in about a minute, cold JVM included, so each workload keeps one to
three attributes, and caps the MLP at ``MLP_MAX_ITER`` L-BFGS iterations
(below about 15 its F1 swings from seed to seed). The attributes keep the
cross-attribute work: hospital keeps the ``city -> state`` FD and its
knowledge-base entry, and on tax ``salary`` has enough distinct values
for k-means to reach its k. ``ablation_flights`` is defined here but is
not in ``BENCHMARK.json``: one of its runs takes about a minute on its
own.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Callable

import pandas as pd

from repro.baselines import activeclean, dboost, fm_ed, katara, nadeef, raha
from repro.core.metrics import prf
from repro.core.zeroed import ZeroEDConfig, ZeroEDRunner, ablation_configs
from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.exp.tables import repro_config

MLP_MAX_ITER = 15


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int
    attrs: tuple[str, ...]
    configs: Callable[[int], dict[str, ZeroEDConfig]]
    baselines: tuple[str, ...]


def _table3(seed: int) -> dict[str, ZeroEDConfig]:
    return {"ZeroED": repro_config(seed, mlp_max_iter=MLP_MAX_ITER)}


def _ablation(seed: int) -> dict[str, ZeroEDConfig]:
    return ablation_configs(repro_config(seed, mlp_max_iter=MLP_MAX_ITER))


def _tax(seed: int) -> dict[str, ZeroEDConfig]:
    # the paper's Fig. 8 label rate, as token_cost_rows uses it
    return {"ZeroED": ZeroEDConfig(seed=seed, label_rate=0.05, mlp_max_iter=MLP_MAX_ITER)}


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table3_hospital", "hospital", 300, ("city", "state", "sample"), _table3,
            ("dboost", "nadeef", "katara", "activeclean", "raha", "fm_ed"),
        ),
        Workload(
            "ablation_flights", "flights", 300, ("act_dep_time",), _ablation, (),
        ),
        Workload(
            "tax_scale", "tax", 2000, ("zip", "salary"), _tax, ("fm_ed",),
        ),
    )
}


def project(ds: Dataset, attrs: tuple[str, ...]) -> Dataset:
    """``ds`` restricted to ``attrs``, with its baseline metadata to match."""
    keep = list(attrs)
    ks = set(keep)
    return replace(
        ds,
        dirty=ds.dirty[keep], clean=ds.clean[keep],
        fds=[fd for fd in ds.fds if set(fd) <= ks],
        patterns={a: p for a, p in ds.patterns.items() if a in ks},
        kb={k: v for k, v in ds.kb.items() if set(k) <= ks},
        numeric_attrs=[a for a in ds.numeric_attrs if a in ks],
        nadeef_attrs=None if ds.nadeef_attrs is None
        else [a for a in ds.nadeef_attrs if a in ks],
        error_types=None if ds.error_types is None else ds.error_types[keep],
    )


def make_dataset(w: Workload, seed: int) -> Dataset:
    return project(load_dataset(w.dataset, n=w.n, seed=seed), w.attrs)


@dataclass
class Detection:
    """One detection run: a ZeroED config or a baseline call."""

    name: str
    mask: pd.DataFrame | None = None
    tokens: int = 0
    calls: int = 0
    error: str | None = None
    zeroed: bool = False


def _baseline(name: str, spark, ds: Dataset, stats, seed: int):
    """Call one baseline the way ``repro.exp.tables`` does; FM_ED's usage
    is kept, since its tokens count toward the iteration's LLM cost."""
    if name == "fm_ed":
        return fm_ed.detect(spark, ds, seed=seed)
    if name == "dboost":
        return dboost.detect(spark, ds, stats), None
    if name == "nadeef":
        return nadeef.detect(spark, ds), None
    if name == "katara":
        return katara.detect(spark, ds), None
    if name == "activeclean":
        return activeclean.detect(spark, ds, seed=seed), None
    if name == "raha":
        return raha.detect(spark, ds, stats, seed=seed), None
    raise ValueError(name)


def run_iteration(w: Workload, spark, ds: Dataset, seed: int) -> list[Detection]:
    """One iteration: every config, then every baseline. A run that raises
    is recorded as failed and the iteration goes on."""
    out: list[Detection] = []
    runner = ZeroEDRunner(spark, ds)
    for label, cfg in w.configs(seed).items():
        d = Detection(label, zeroed=True)
        try:
            res = runner.run(cfg)
            d.mask, d.tokens, d.calls = res.mask, res.usage.total_tokens, res.usage.calls
        except Exception as e:  # noqa: BLE001 - counted as a failed run
            d.error = f"{type(e).__name__}: {e}"
        out.append(d)
    stats = runner._stats() if {"dboost", "raha"} & set(w.baselines) else None
    for b in w.baselines:
        d = Detection(b)
        try:
            d.mask, usage = _baseline(b, spark, ds, stats, seed)
            if usage is not None:
                d.tokens, d.calls = usage.total_tokens, usage.calls
        except Exception as e:  # noqa: BLE001 - counted as a failed run
            d.error = f"{type(e).__name__}: {e}"
        out.append(d)
    return out


def mask_problem(mask: pd.DataFrame | None, ds: Dataset) -> str | None:
    """Why ``mask`` is not a detection mask for ``ds``, or None."""
    if mask is None:
        return "no mask"
    if mask.shape != ds.dirty.shape:
        return f"shape {mask.shape} != {ds.dirty.shape}"
    if list(mask.columns) != ds.attrs:
        return f"columns {list(mask.columns)} != {ds.attrs}"
    if not all(pd.api.types.is_bool_dtype(t) for t in mask.dtypes):
        return f"dtypes {sorted(set(map(str, mask.dtypes)))} are not all bool"
    return None


def f1(mask: pd.DataFrame, ds: Dataset) -> float:
    return prf(mask, ds.error_mask)["f1"]


def iteration_metrics(detections: list[Detection], ds: Dataset, wall: float) -> dict:
    """End-to-end values of one untraced iteration (evaluation only)."""
    zeroed = [d for d in detections if d.zeroed]
    return {
        "wall_s": wall,
        "cells_per_s": ds.dirty.size * len(zeroed) / wall,
        "zeroed_f1": statistics.fmean(
            [f1(d.mask, ds) for d in zeroed if d.mask is not None] or [0.0]),
        "llm_tokens": sum(d.tokens for d in detections),
        "llm_calls": sum(d.calls for d in detections),
    }


class Checker:
    """Correctness checks over every iteration of a run.

    A detection run fails when it raises, when its mask is not a bool mask
    of the dirty table's shape and columns, or when its mask or token
    counts differ from the run's first iteration (same seed, same inputs).
    Run-level problems (the token claim, job attribution) go to
    ``problems`` too and make the run incorrect.
    """

    def __init__(self, ds: Dataset, workload: str):
        self.ds = ds
        self.workload = workload
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, detections: list[Detection], iteration: int) -> None:
        tokens = {"zeroed": 0, "fm_ed": 0}
        for d in detections:
            self.attempted += 1
            problem = d.error or mask_problem(d.mask, self.ds)
            if problem is None:
                ref = self.reference.setdefault(d.name, (d.mask, d.tokens, d.calls))
                if not ref[0].equals(d.mask) or ref[1:] != (d.tokens, d.calls):
                    problem = "output differs from the first iteration's"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"iteration {iteration} {d.name}: {problem}")
            if d.zeroed:
                tokens["zeroed"] += d.tokens
            elif d.name == "fm_ed":
                tokens["fm_ed"] += d.tokens
        if self.workload == "tax_scale" and not tokens["zeroed"] < tokens["fm_ed"]:
            self.problems.append(
                f"iteration {iteration}: ZeroED tokens {tokens['zeroed']} "
                f"not below FM_ED's {tokens['fm_ed']}"
            )
