"""The traced benchmark pass patches module bindings that must exist.

``bench/passrun.py --trace 1`` wraps each ``(module, attr, span)`` entry of
its ``PATCHES`` table with ``getattr``, so a refactor that drops or renames
one of those bindings fails only there. This reads the table with ``ast``
(importing passrun would parse ``sys.argv``) and checks every binding, then
runs one traced pass of two workloads, as ``bench/run.py --trace 1`` does.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PASSRUN = ROOT / "bench" / "passrun.py"


def _assigned(path: Path, name: str):
    """The value node of the module-level assignment to name in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError("%s defines no %s" % (path.relative_to(ROOT), name))


def _patches() -> list[tuple[str, str]]:
    return [(entry.elts[0].id, entry.elts[1].value)
            for entry in _assigned(PASSRUN, "PATCHES").elts]


def test_every_traced_binding_resolves():
    patches = _patches()
    assert patches
    for module, attr in patches:
        mod = importlib.import_module("ppbench." + module)
        assert callable(getattr(mod, attr, None)), "ppbench.%s.%s" % (module, attr)


@pytest.mark.parametrize("workload,order", [("exact_gls", "0:0,1:0"), ("casestudy_gls", "0:0")])
def test_traced_pass_runs_and_records_every_exercised_layer(workload, order):
    # arguments: root workload seed t_spawn deadline order trace span_path
    env = dict(os.environ, PPBENCH_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(PASSRUN), str(ROOT), workload, "20140101", "0", "0", order, "1", "-"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(report["ops"]) == order.count(":")
    assert [op["error"] for op in report["ops"]] == [None] * len(report["ops"])
    exercised = ast.literal_eval(_assigned(ROOT / "bench" / "run.py", "EXERCISED"))[workload]
    calls = {span: report["layers"].get(span, {}).get("calls", 0) for span in exercised}
    assert all(count >= 1 for count in calls.values()), calls
