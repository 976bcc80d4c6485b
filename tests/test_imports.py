"""Every imported name is used.

Each name that an import binds in src/gffads or tests must be read
somewhere in its module or be listed in the module's __all__.  Names are
collected with `ast`, so an unused import fails here without a linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = [ROOT / "src" / "gffads", ROOT / "tests"]


def _exported(tree):
    """The names listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports():
    """Labels path:line name of the imported names no code reads."""
    culprits = []
    for folder in FOLDERS:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and \
                        node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            used |= _exported(tree)
            culprits += [f"{path.relative_to(ROOT)}:{line} {name}"
                         for name, line in imported.items()
                         if name not in used]
    return culprits


def test_every_import_is_used():
    culprits = unused_imports()
    assert not culprits, (f"{len(culprits)} unused imports: "
                          + ", ".join(culprits))
