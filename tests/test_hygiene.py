"""Source hygiene of src/brw, checked with the standard library's ast.

Every name a module imports is used in that module, every module-level
function and class is referenced from src/brw, tests/ or perfbench/ outside
its own definition, and every parameter and stored attribute is read, so dead
code, stale imports and state nothing reads show up as failures.
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


def _stored_attributes(tree):
    """(name, line) for every `self.name = ...` target in a tree."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for t in targets:
            if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self"):
                yield t.attr, t.lineno


def test_every_parameter_and_stored_attribute_is_read():
    """Every parameter of a function in src/brw is named in that function's
    body (self, cls, _ and _-prefixed names are exempt), and every attribute
    stored as `self.x = ...` in src/brw is loaded as `.x` somewhere in src/brw,
    tests/ or perfbench/.

    The attribute half is by name only: a stored attribute counts as read
    when any object's attribute of that name is loaded. It misses an
    attribute whose name another class reads (ConjData.group and
    GutkinWitness.algebra were such), and one that is only appended to or
    otherwise loaded to be changed (LocalCharGroup.unit_generators was one)."""
    trees = {path: _parse(path) for d in (SRC, os.path.join(ROOT, "tests"),
                                          os.path.join(ROOT, "perfbench"))
             for path in _py_files(d)}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in _py_files(SRC):
        where = os.path.basename(path)
        for node in ast.walk(trees[path]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                named = {n.id for stmt in node.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name)}
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                params += [x for x in (a.vararg, a.kwarg) if x]
                unread += [f"{where}:{arg.lineno} {arg.arg}" for arg in params
                           if arg.arg not in named and arg.arg not in ("self", "cls")
                           and not arg.arg.startswith("_")]
        unread += [f"{where}:{line} {name}" for name, line in _stored_attributes(trees[path])
                   if name not in loaded]
    assert not unread, unread


def test_groups_are_interned_and_compared_by_identity():
    """A FiniteGroup is built only in groups.intern_group, once per element
    set of its algebra, so a group equals another exactly when it is that
    object: src/brw calls FiniteGroup nowhere else, and no == or != has an
    .elements attribute as an operand."""
    found = []
    for path in _py_files(SRC):
        where = os.path.basename(path)
        tree = _parse(path)
        interned = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
                    and where == "groups.py" and f.name == "intern_group" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in interned
                    and "FiniteGroup" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))):
                found.append(f"{where}:{node.lineno} FiniteGroup(")
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(isinstance(x, ast.Attribute) and x.attr == "elements"
                            for x in (node.left, *node.comparators))):
                found.append(f"{where}:{node.lineno} == or != on .elements")
    assert not found, found


def test_no_assert_statements():
    """Preconditions in src/brw raise a BrwError: python -O drops an assert,
    and the CLI reports only BrwError as a one-line failure."""
    found = [f"{os.path.basename(path)}:{node.lineno}" for path in _py_files(SRC)
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert not found, found


def test_src_never_calls_induce():
    """Ind_H^G lam = chi is decided by gutkin._induces alone; chars.induce is
    the tests' oracle and is called nowhere in src/brw."""
    found = [f"{os.path.basename(path)}:{node.lineno}" for path in _py_files(SRC)
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call)
             and "induce" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, found
