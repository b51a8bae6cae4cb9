"""The package carries no module-level API that no command reaches.

Liveness is rooted at what runs: ``cli.main``, code outside any function
in a package module (``import ultrafree.cli`` runs every module's body),
and every line of ``tools/*.py``.  A top-level function is live when a
root or another live function, not its own body, reads its name (as a
bare name or an attribute).  Tests do not count as callers, and neither
does ``ultrafree.__all__``: exporting a function does not make it live.
The scan matches names, so it can only over-count what is reached.  A
public method of a module-level class must be read as an attribute by
package code outside its own body.  Every name listed in an ``__all__``
must exist, no module reads the process environment, no check name is
written in two modules, and no function outside ``budget.py`` takes a
``budget``.
"""

import ast
import importlib
from pathlib import Path

import ultrafree

SRC = Path(ultrafree.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
TOOLS = sorted(Path(__file__).resolve().parent.parent.joinpath("tools").glob("*.py"))


def _module(stem: str):
    return ultrafree if stem == "__init__" else importlib.import_module(f"ultrafree.{stem}")


def _scan():
    """``(defs, refs)``: every top-level function of the package as
    (module, name), and for each name read in the package or a tool (as
    a bare name or an attribute) the (module, enclosing top-level def or
    None) it is read in.  A tool runs as a whole, so its reads carry None."""
    defs = []
    refs: dict[str, set] = {}
    sources = [(stem, SRC / f"{stem}.py", False) for stem in MODULES]
    sources += [(f"tools.{path.stem}", path, True) for path in TOOLS]
    for stem, path, tool in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = None
            if not tool and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                defs.append((stem, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add((stem, owner))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add((stem, owner))
    return defs, refs


def _dead_functions():
    """The top-level functions that no root reaches, as "module.name".
    A function read only by a dead one is dead too."""
    defs, refs = _scan()
    live = {("cli", "main")}
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
    return [f"{stem}.{name}" for stem, name in defs if (stem, name) not in live]


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


def test_every_function_is_reached_from_the_cli():
    assert _dead_functions() == []


def test_every_public_method_is_read():
    assert _unread_methods() == []


def test_scan_sees_the_package():
    defs, refs = _scan()
    assert ("cli", "main") in defs and ("graphs", "is_kr_free") in defs
    assert ("graphs", "is_maximal_kr_free") in refs["is_kr_free"]
    # the catalog generator lives in tools/ and reaches graph6 encoding
    assert ("tools.write_catalog", None) in refs["_encode"]


def test_every_all_entry_resolves():
    missing = [
        f"{stem}.{name}"
        for stem in MODULES
        for name in getattr(_module(stem), "__all__", ())
        if not hasattr(_module(stem), name)
    ]
    assert missing == []


def test_the_package_reads_no_environment():
    # a command's result depends only on its argv and the files it names
    reads = [
        f"{stem}.py:{node.lineno}"
        for stem in MODULES
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
        if getattr(node, "id", getattr(node, "attr", None)) in ("environ", "getenv")
    ]
    assert reads == []


def _check_name_modules() -> dict[str, set]:
    """For each string literal passed first to ``_verdict``, ``Check`` or
    ``_check``, the modules that pass it."""
    out: dict[str, set] = {}
    for stem in MODULES:
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("_verdict", "Check", "_check")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                out.setdefault(node.args[0].value, set()).add(stem)
    return out


def test_each_check_name_is_written_in_one_module():
    # a check's name and rule live with the code that reaches its verdict
    names = _check_name_modules()
    assert sorted(name for name, stems in names.items() if len(stems) > 1) == []
    assert names["degree-hypothesis"] == {"decompose"}
    assert names["construction-size"] == {"cli"}


def test_no_function_outside_budget_takes_a_budget():
    # a solver charges the budget in force, so no call can forget to pass
    # one on; only the CLI makes a budget and puts it in force
    takes, makes = [], []
    for stem in MODULES:
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if stem != "budget" and any(p.arg == "budget" for p in params):
                    takes.append(f"{stem}.py:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SearchBudget"
            ):
                makes.append(stem)
    assert takes == []
    assert set(makes) == {"cli"}
