"""Exact tools for clique-density-critical graphs.

Maximal K_r-free graphs in which every non-adjacent pair sees many
(r-2)-cliques in its common neighborhood have rigid structure: bounded
VC dimension, no large half graphs, and small blow-up quotients.  This
package computes all of the relevant quantities exactly (rationals, no
floats) and re-verifies each structural claim on every input it touches.

A module's ``__all__`` is what this package exports; the rest of a
module is internal.  ``BACKEND`` is the constant ``"pure"``: the search
kernels have a single pure-Python implementation, and the name is kept
for scripts that print it.

The exports load on first use, so ``import ultrafree.cli`` loads only the
layers every command runs.  The first exported name asked of this package
(or ``__all__``, or ``__version__``) imports every layer below.
"""

BACKEND = "pure"

# the exporting layers, in the order their names enter __all__
_LAYERS = (
    "budget", "catalog", "constructions", "convexity", "decompose", "errors",
    "graphs", "io", "reports", "setsystems", "ultra",
)


def __getattr__(name):
    # a submodule or private name is the import system's to bind: loading
    # the layers for it would re-enter a layer that is still importing
    if name in _LAYERS or name in ("cli", "lp") or (
        name.startswith("_") and name not in ("__all__", "__version__")
    ):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    exported = ["BACKEND", "__version__"]
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        for export in module.__all__:
            globals()[export] = getattr(module, export)
        exported += module.__all__
    globals().update(__all__=exported, __version__=globals()["TOOL_VERSION"])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
