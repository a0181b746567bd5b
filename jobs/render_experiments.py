"""Render EXPERIMENTS.md from the benchmark result JSONs.

Run after ``pytest benchmarks/ --benchmark-only``:

    python jobs/render_experiments.py > EXPERIMENTS.md

A table whose ``benchmarks/results/<name>.json`` is missing is listed with
the bench that writes it.
"""
from __future__ import annotations

import json
import pathlib

from repro.exp.tables import TABLES

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — measured vs paper

All numbers below were produced by `pytest benchmarks/ --benchmark-only`
(raw rows in `benchmarks/results/*.json`; regenerate any table standalone
with `python jobs/run_table.py NAME`). "paper" columns are transcribed from
the ICDE 2025 paper.

**Scale.** Datasets are generated at 300 tuples (Table V: 250; token
study: Tax at 500/1000/2000) with Table II error *rates* preserved; the
paper used 1 000–7 390 (Tax: 200 000). The harness labels 10 % of data
(vs the paper's 5 %) to keep the *absolute* per-attribute sampling budget
comparable at the smaller scale — see DESIGN.md. Absolute F1 equality is
not expected (synthetic data + simulated LLM); the comparison targets are
*shape*: which method wins, rough factors, orderings, and trends.
"""


def main() -> None:
    print(HEADER)
    for name, table in TABLES.items():
        path = RESULTS / f"{name}.json"
        if path.exists():
            print(table.render(json.loads(path.read_text())))
        else:
            print(
                f"## {table.title}\n\nNot generated yet: "
                f"`pytest benchmarks/bench_{name}.py --benchmark-only` writes `{path.name}`.\n"
            )


if __name__ == "__main__":
    main()
