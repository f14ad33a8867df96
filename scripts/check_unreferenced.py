"""List the definitions under ``src/repro`` that nothing references.

A definition is a module-level function or class, or a non-dunder method of
a module-level class.  It is referenced when its name appears as a name or
an attribute in the code (f-strings included; comments and other strings
not) of ``src/``, ``tests/``, ``benchmarks/``, ``examples/``, ``servbench/``
or ``scripts/``.  An imported name counts only when the importing module
reads it (under its ``as`` name, if any) or lists it in ``__all__``; a
package ``__init__`` re-export under ``src/`` does not count.

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


def exported(tree: ast.Module) -> set:
    """The strings of a module's ``__all__`` list."""
    return {element.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in getattr(node.value, "elts", ())
            if isinstance(element, ast.Constant)}


def main() -> int:
    references: Counter = Counter()
    defined = []
    for path in sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_src = path.parts[len(ROOT.parts)] == "src"
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
        if not (in_src and path.name == "__init__.py"):
            read |= exported(tree)
            references.update(alias.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              for alias in node.names
                              if (alias.asname or alias.name) in read)
        if in_src:
            defined.extend((path.relative_to(ROOT), node.lineno, node.name)
                           for node in definitions(tree))
    unreferenced = [entry for entry in defined if not references[entry[2]]]
    for path, lineno, name in unreferenced:
        print(f"{path}:{lineno}: {name} is referenced nowhere")
    return 1 if unreferenced else 0


if __name__ == "__main__":
    sys.exit(main())
