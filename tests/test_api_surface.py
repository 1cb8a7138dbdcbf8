"""The library's public surface is what the program reads: no public
module-level name in `src/thzlink` is there only for the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "thzlink"


def public_names(tree: ast.Module):
    """The module-level names a module defines that do not start with `_`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in targets if not name.startswith("_"))


def names_read(tree: ast.Module):
    """Every name `tree` loads, reads as an attribute or imports by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_read_by_the_program():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    read = {name for tree in trees.values() for name in names_read(tree)}
    unread = [f"{path.stem}:{name}" for path, tree in trees.items()
              if path.parent == PACKAGE for name in public_names(tree)
              if name not in read]
    assert unread == []
