"""Every private module-level name of the package has a reader in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skewchar"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_module_name_is_read_in_src():
    # A deletion takes its helpers with it: a module-level _name (a function,
    # class or assignment) that no code in src/ loads as a name or reads as
    # an attribute has no reader left.
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((path.name, name) for name in names if _private(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 10, "the scan found too few private names: is SRC right?"
    assert sorted(f"{module}: {name}" for module, name in defined if name not in read) == []
