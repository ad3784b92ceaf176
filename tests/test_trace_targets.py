"""The layer functions that the benchmark's traced run wraps by name exist.

``bench/tracer.py`` looks its targets up by module and attribute path; one it
cannot find drops every per-layer metric built on it.  This test reads the
TARGETS list from that file without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _hgamoeba_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            entries = [(e.elts[1].value, e.elts[2].value) for e in node.value.elts]
            return [(mod, path) for mod, path in entries if mod.startswith("hgamoeba")]
    raise AssertionError(f"{TRACER} has no TARGETS list")


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_trace_target_resolves():
    targets = _hgamoeba_targets()
    assert targets
    missing = [f"{mod}.{path}" for mod, path in targets if not _resolves(mod, path)]
    assert not missing, f"trace targets absent from hgamoeba: {missing}"
