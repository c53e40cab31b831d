"""The traced benchmark pass patches module bindings that must exist.

``bench/passrun.py --trace 1`` wraps each ``(module, attr, span)`` entry of
its ``PATCHES`` table with ``getattr``, so a refactor that drops or renames
one of those bindings fails only there. This reads the table with ``ast``
(importing passrun would parse ``sys.argv``) and checks every binding.
"""

import ast
import importlib
from pathlib import Path

PASSRUN = Path(__file__).resolve().parents[1] / "bench" / "passrun.py"


def _patches() -> list[tuple[str, str]]:
    tree = ast.parse(PASSRUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/passrun.py defines no PATCHES table")


def test_every_traced_binding_resolves():
    patches = _patches()
    assert patches
    for module, attr in patches:
        mod = importlib.import_module("ppbench." + module)
        assert callable(getattr(mod, attr, None)), "ppbench.%s.%s" % (module, attr)
