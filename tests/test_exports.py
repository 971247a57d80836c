"""Every definition has a program path: it is reached from the CLI, or the
README lists it as library-only, with a reason.  So has every public method
and property of an exported class.

The graph is read from the source: each top-level definition of a package
module (function, class or assignment) reads the top-level names its body
loads, outside annotations and its own locals, and the ``module.name``
attributes of the package modules it imports.  The walk starts at
``cli.main``, the console-script entry point, and at the ``cmd_*`` functions
of ``cli.py``.

A member (dunders are exempt) is reached when its name is read as an
attribute, ``x.name`` for any ``x``, in the body of a reached definition, of
a library-only name or of a member already reached.  The body of a class as
a whole does not count, or every member would read every other.
"""

import ast
import re
import types
from pathlib import Path

import tpminors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tpminors"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _reads(node):
    """(names loaded, (name, attribute) pairs) of one definition, without
    its annotations and the names it binds itself."""
    loads, bound, attrs = set(), set(), set()
    stack = [node.value] if isinstance(node, ast.Assign) else [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.arg):
            bound.add(n.arg)
        elif isinstance(n, ast.Name):
            (loads if isinstance(n.ctx, ast.Load) else bound).add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            attrs.add((n.value.id, n.attr))
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n is not node:
            bound.add(n.name)
        for field, value in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                stack.extend(v for v in (value if isinstance(value, list) else [value])
                             if isinstance(v, ast.AST))
    return loads - bound, attrs


def _module(name):
    """(top-level definitions, imported names, imported package modules) of
    one module: {name: node}, {alias: (module, name)}, {alias: module}."""
    tree = ast.parse((SRC / (name + ".py")).read_text())
    defs, imported, modules = {}, {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defs[target.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    return defs, imported, modules


PACKAGE = {name: _module(name) for name in MODULES}


def resolve(module, name):
    """The (module, name) that defines ``name`` as ``module`` sees it, or None."""
    defs, imported, _ = PACKAGE[module]
    if name in defs:
        return module, name
    if name in imported:
        return resolve(*imported[name])
    return None


def edges(module, name):
    """The package definitions that the definition of ``name`` reads."""
    loads, attrs = _reads(PACKAGE[module][0][name])
    _, _, modules = PACKAGE[module]
    found = [resolve(module, n) for n in loads]
    found += [resolve(modules[m], a) for m, a in attrs if m in modules]
    return {f for f in found if f is not None}


def reached():
    """Every (module, name) reached from ``main`` and the ``cmd_*`` functions of cli.py."""
    todo = [("cli", name) for name in PACKAGE["cli"][0]
            if name == "main" or name.startswith("cmd_")]
    seen = set(todo)
    while todo:
        for nxt in edges(*todo.pop()) - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def exports():
    """{name: (module, name)} of every non-module name in ``tpminors.__all__``."""
    names = [n for n in tpminors.__all__
             if not isinstance(getattr(tpminors, n), types.ModuleType)]
    return {n: resolve(getattr(tpminors, n).__module__.rpartition(".")[2], n) for n in names}


def library_only():
    """The names listed under the README's "Library-only names" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library-only names\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, re.M)


def attributes(node):
    """The attribute names one definition reads: ``x.name`` for any ``x``."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def members():
    """{(class, member): node} of the public methods and properties of every
    exported class."""
    out = {}
    for name, (module, _) in exports().items():
        node = PACKAGE[module][0][name]
        if isinstance(node, ast.ClassDef):
            out.update(((name, item.name), item) for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def reached_members():
    """The (class, member) pairs whose name a reached body reads, to a fixed point."""
    library = {exports()[name] for name in library_only()}
    names = set()
    for module, name in reached() | library:
        node = PACKAGE[module][0][name]
        if not isinstance(node, ast.ClassDef):
            names |= attributes(node)
    candidates, seen = members(), set()
    while True:
        new = {key for key in candidates if key[1] in names} - seen
        if not new:
            return seen
        seen |= new
        for key in new:
            names |= attributes(candidates[key])


def test_graph_reaches_the_commands_callees():
    """The walk follows module attributes, imports and aliases: the scan
    families' counters, and det_int through constructions' det_int3."""
    seen = reached()
    assert {("analysis", "scan_exponent"), ("counting", "unit_rectangles"),
            ("exact", "det_int"), ("constructions", "mate_point")} <= seen


def test_every_export_has_a_program_path():
    seen = reached()
    unreached = sorted(n for n, where in exports().items() if where not in seen)
    assert unreached == sorted(library_only())


def test_every_definition_has_a_program_path():
    """From ``main``, private helpers too: a top-level definition that only a
    library-only name reads would be a second, unlisted library name."""
    seen = reached()
    unreached = sorted(name for module in MODULES for name in PACKAGE[module][0]
                       if (module, name) not in seen)
    assert unreached == sorted(library_only())


def test_member_walk_follows_each_source():
    """rows is read in a command's path, Line2.contains only in a library-only
    body (point_line_incidences), dim only in a reached member (Hyperplane.contains);
    private members and dunders are not walked."""
    found = set(members())
    assert {("RatMatrix", "rows"), ("Line2", "contains"),
            ("Hyperplane", "dim")} <= reached_members() <= found
    assert not any(member.startswith("_") for _, member in found)


def test_every_member_has_a_reader():
    unread = sorted("%s.%s" % key for key in set(members()) - reached_members())
    assert unread == []
