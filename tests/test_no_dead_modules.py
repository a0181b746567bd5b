"""Every ``repro`` module is imported by some code in the repository.

Spark-free: the sources are parsed with :mod:`ast`, never imported. Both
``import repro.x.y`` and ``from repro.x import y`` (``y`` a submodule)
count as a use of ``repro.x.y``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "jobs", "perfbench")


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _imported_modules() -> set[str]:
    modules = {_module_name(p) for p in PKG.rglob("*.py")}
    seen: set[str] = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    seen.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    seen.add(node.module)
                    seen.update(f"{node.module}.{alias.name}" for alias in node.names)
    return seen & modules


def test_every_repro_module_is_imported():
    imported = _imported_modules()
    dead = sorted(
        _module_name(p)
        for p in PKG.rglob("*.py")
        if p.name != "__init__.py" and _module_name(p) not in imported
    )
    assert not dead, f"modules nothing imports: {dead}"
