"""List the definitions under ``src/repro`` that nothing references.

A definition is a module-level function or class, or a non-dunder method of
a module-level class.  It is referenced when its name appears as a name or
an attribute in the code (f-strings included; comments and other strings
not) of ``src/``, ``tests/``, ``benchmarks/``, ``examples/``, ``servbench/``
or ``scripts/``; a package ``__init__`` re-export does not count.

    python scripts/check_unreferenced.py   # exit 1 lists every unreferenced one
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "servbench", "scripts")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                    yield item


def main() -> int:
    references: Counter = Counter()
    defined = []
    for path in sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_src = path.parts[len(ROOT.parts)] == "src"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
            elif isinstance(node, ast.ImportFrom) and not (
                    in_src and path.name == "__init__.py"):
                references.update(alias.name for alias in node.names)
        if in_src:
            defined.extend((path.relative_to(ROOT), node.lineno, node.name)
                           for node in definitions(tree))
    unreferenced = [entry for entry in defined if not references[entry[2]]]
    for path, lineno, name in unreferenced:
        print(f"{path}:{lineno}: {name} is referenced nowhere")
    return 1 if unreferenced else 0


if __name__ == "__main__":
    sys.exit(main())
