"""Public-surface guard: every public top-level name of the library and the
benchmark harness has a caller there.

A function, class or constant that only tests or demos use is surface to
maintain with no user, so it should not exist. Names imported into
`devoc/__init__.py` are the package's exported API and count as used.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    glob.glob(os.path.join(ROOT, "src", "devoc", "*.py"))
    + [p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py")) if not os.path.basename(p).startswith("test_")]
)


def _defined(tree):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _referenced(tree, skip):
    """Names read as a bare name or an attribute anywhere outside skip."""
    inside = {id(n) for node in skip for n in ast.walk(node)}
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside
    }


def unreferenced_names():
    trees = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), path)
    exported = {
        alias.name
        for node in ast.walk(trees[os.path.join(ROOT, "src", "devoc", "__init__.py")])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    everywhere = {path: _referenced(tree, []) for path, tree in trees.items()}
    missing = []
    for path, tree in trees.items():
        module = os.path.splitext(os.path.basename(path))[0]
        elsewhere = set().union(*(refs for other, refs in everywhere.items() if other != path))
        for name, node in _defined(tree):
            if name.startswith("_") or name in exported or name in elsewhere:
                continue
            if name not in _referenced(tree, [node]):
                missing.append("%s.%s" % (module, name))
    return sorted(missing)


def test_every_public_name_has_a_caller():
    missing = unreferenced_names()
    assert not missing, "no caller outside tests and demos: " + ", ".join(missing)
