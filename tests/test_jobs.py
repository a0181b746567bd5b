"""Tests for the ``jobs/`` entry points (Spark-free: table2 needs no session)."""
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from repro.datasets.registry import PROFILES
from repro.exp.tables import TABLES

ROOT = Path(__file__).resolve().parents[1]
JOBS = ROOT / "jobs"


def _run_table(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(JOBS / "run_table.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


def test_run_table2_prints_title_and_one_row_per_dataset():
    proc = _run_table("table2")
    assert proc.returncode == 0, proc.stderr
    assert TABLES["table2"].title in proc.stdout
    for name in PROFILES:
        assert len(re.findall(rf"^\| {name} \|", proc.stdout, re.M)) == 1, name


def test_run_table_unknown_name_lists_known_names():
    proc = _run_table("table7")
    assert proc.returncode != 0
    for name in TABLES:
        assert name in proc.stderr


def test_render_experiments_with_missing_results(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("render_experiments", JOBS / "render_experiments.py")
    render = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(render)
    for name in ("table2", "table3"):
        shutil.copy(ROOT / "benchmarks" / "results" / f"{name}.json", tmp_path)
    monkeypatch.setattr(render, "RESULTS", tmp_path)

    render.main()
    out = capsys.readouterr().out
    for table in TABLES.values():
        assert f"## {table.title}" in out
    assert "| hospital | ZeroED |" in out
    assert "Mean-F1 ranking (measured): " in out
    for name in ("table4", "table5", "table6", "tokens"):
        bench = f"benchmarks/bench_{name}.py"
        assert (ROOT / bench).exists()
        assert f"Not generated yet: `pytest {bench} --benchmark-only`" in out
    assert out.count("Not generated yet") == 4
