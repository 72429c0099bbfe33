"""The public surface stays the surface the product uses.

(a) Every name that `tropicon/__init__.py` exports is named somewhere a
    user or the program reaches it: in another `src/tropicon` module
    (outside the lines of its own definition), in a demo, or in README.md.
    A name that only the tests call is library surface nobody uses.
(b) No `src/tropicon` module imports a name it never uses.
(c) Start-up loads no `dataclasses`: in a fresh interpreter,
    `import tropicon.cli` loads none of `dataclasses`, `inspect` or `ast`.

Only the standard library is used, so the guard runs wherever the tests do.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropicon"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _definition_lines(tree: ast.Module, name: str) -> set[int]:
    """Line numbers of the function or class definitions of `name`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _named_in(text: str, name: str, skip: set[int] = frozenset()) -> bool:
    pattern = re.compile(r"\b%s\b" % re.escape(name))
    return any(pattern.search(line) for i, line in enumerate(text.splitlines(), 1)
               if i not in skip)


def unused_exports() -> list[str]:
    sources = [(p.read_text(), ast.parse(p.read_text())) for p in MODULES]
    others = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    others.append((ROOT / "README.md").read_text())
    return [name for name in _exports()
            if not any(_named_in(text, name, _definition_lines(tree, name))
                       for text, tree in sources)
            and not any(_named_in(text, name) for text in others)]


def unused_imports() -> list[str]:
    """`module: name` for every imported name its module never reads."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.name}: {name}" for name in sorted(imported) if name not in used]
    return out


def test_every_export_has_a_caller_outside_the_tests():
    missing = unused_exports()
    assert not missing, f"exported, but only the tests use them: {missing}"


def test_no_module_imports_a_name_it_never_uses():
    unused = unused_imports()
    assert not unused, f"imported but never used: {unused}"


def test_cli_loads_no_dataclasses():
    """A fresh interpreter, warnings as errors, importing this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tropicon.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "[]\n"
