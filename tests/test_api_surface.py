"""The package carries no module-level API that nothing uses.

A public module-level function must be exported by ``ultrafree.__all__``
or be read by live package code other than its own body: code outside
any function, or a function that is itself exported or read so.  Tests
do not count as callers.  A public method of a module-level class must
be read as an attribute by package code outside its own body.  Every
name listed in an ``__all__`` must exist.
"""

import ast
import importlib
from pathlib import Path

import ultrafree

SRC = Path(ultrafree.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module(stem: str):
    return ultrafree if stem == "__init__" else importlib.import_module(f"ultrafree.{stem}")


def _scan():
    """``(defs, refs)``: every top-level function as (module, name), and
    for each name read anywhere in the package (as a bare name or an
    attribute) the (module, enclosing top-level def or None) it is read in."""
    defs = []
    refs: dict[str, set] = {}
    for stem in MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                defs.append((stem, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add((stem, owner))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add((stem, owner))
    return defs, refs


def _dead_functions():
    """The public top-level functions that are not live, as "module.name".
    A function read only by a dead one is dead too."""
    defs, refs = _scan()
    live = {d for d in defs if d[1] in ultrafree.__all__}
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d not in live and any(
                owner is None or ((stem, owner) in live and (stem, owner) != d)
                for stem, owner in refs.get(d[1], ())
            ):
                live.add(d)
                grew = True
    return [
        f"{stem}.{name}"
        for stem, name in defs
        if (stem, name) not in live and not name.startswith("_")
    ]


def _unread_methods():
    """The public methods of module-level classes that no package code
    reads as an attribute outside the method's own body, as
    "module.Class.name"."""
    trees = {
        stem: ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")) for stem in MODULES
    }
    reads: dict[str, set] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(node)
    return [
        f"{stem}.{cls.name}.{fn.name}"
        for stem, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and not reads.get(fn.name, set()) - set(ast.walk(fn))
    ]


def test_every_public_function_is_exported_or_used():
    assert _dead_functions() == []


def test_every_public_method_is_read():
    assert _unread_methods() == []


def test_scan_sees_the_package():
    defs, refs = _scan()
    assert ("cli", "main") in defs and ("graphs", "is_kr_free") in defs
    assert ("graphs", "is_maximal_kr_free") in refs["is_kr_free"]


def test_every_all_entry_resolves():
    missing = [
        f"{stem}.{name}"
        for stem in MODULES
        for name in getattr(_module(stem), "__all__", ())
        if not hasattr(_module(stem), name)
    ]
    assert missing == []
