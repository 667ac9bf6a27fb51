"""Source hygiene of src/brw, checked with the standard library's ast.

Every name a module imports is used in that module, and every module-level
function and class is referenced from src/brw, tests/ or perfbench/ outside
its own definition, so dead code and stale imports show up as failures.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "brw")


def _py_files(directory):
    return sorted(os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(".py"))


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _references(tree):
    """(name, line) for every Name, attribute and imported name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for path in _py_files(SRC):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    assert not unused, unused


def test_every_module_level_definition_is_referenced():
    trees = {path: _parse(path) for d in (SRC, os.path.join(ROOT, "tests"),
                                          os.path.join(ROOT, "perfbench"))
             for path in _py_files(d)}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    dead = []
    for path in _py_files(SRC):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(other != path or line not in own
                       for other, line in refs.get(node.name, ())):
                dead.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
    assert not dead, dead
