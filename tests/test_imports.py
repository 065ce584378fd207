"""Every imported name in the package, the tests and the tools is used,
and so is every module-level function and class of the package.

An import binds a name; the name counts as used where the file reads it
(an ast.Name load, which covers module.attribute too) or lists it in
__all__.  A name bound by an import and never read is dead code, and so
is a definition that no file of the package, the tests, the tools or the
benchmark reads as a name or an attribute or imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/ovsam", "tests", "tools")


def _bound(node):
    """(name, line) of each name an Import or ImportFrom node binds."""
    for alias in node.names:
        if alias.name != "*":
            yield alias.asname or alias.name.partition(".")[0], alias.lineno


def _exported(tree):
    """The names listed in a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path):
    """(line, name) of each import in the file at path whose name is never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for bound in _bound(node)
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used = read | _exported(tree)
    return sorted((line, name) for name, line in imported if name not in used)


def test_no_unused_imports():
    paths = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path)
    ]
    assert unused == []


def _parsed(dirs):
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_no_unread_definitions():
    read = set()
    for tree in _parsed(SCANNED + ("perfbench",)).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= {alias.name.rpartition(".")[2] for alias in node.names}
    defined = [
        (path, node)
        for path, tree in _parsed(("src/ovsam",)).items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 100
    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, node in defined
        if node.name not in read
    ]
    assert unread == []
