"""A public name stays only if a program path or a README example reads it."""

import ast
import re
import types
from pathlib import Path

import ppbench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ppbench"


def _loaded_in_src() -> set[str]:
    # names read (not bound or imported) anywhere in the package's modules;
    # __init__.py only re-exports, so it does not count as a reader
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _read_in_readme() -> set[str]:
    blocks = re.findall(r"```[^\n]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return {name for block in blocks for name in re.findall(r"\bpb\.(\w+)", block)}


def test_every_public_name_has_a_reader():
    public = {name for name in ppbench.__all__
              if not isinstance(getattr(ppbench, name), types.ModuleType)}
    unread = public - _loaded_in_src() - _read_in_readme()
    assert not unread, "public names that no program path or README example reads: %s" % (
        ", ".join(sorted(unread)))
