"""In-process traced run of ultrafree CLI commands.

Wraps the public functions of every layer module in spans (name, start,
end, parent span, command id), rebinds every module global that pointed at
an unwrapped function, and hooks ``SearchBudget.meter`` so that each
meter's node count is collected.  Spans stay in memory and are written out
once the commands have run.  Nothing inside ``src/`` is modified.

Usage:
    python3 perfbench/tracer.py JOB.json RESULT.json SPANS.json

JOB.json holds ``{"commands": [[arg, ...], ...], "budget_nodes": N}``.
Each argv, with ``--budget-nodes N`` appended, is fed to
``ultrafree.cli.main``.  RESULT.json receives each command's exit code and
stdout, the per-layer aggregates, and the self-test problems found.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import types
from collections import defaultdict

# layer name -> module; the CLI itself is the residual of the traced total
LAYERS = {
    "catalog": "ultrafree.catalog",
    "lp": "ultrafree.lp",
    "setsystems": "ultrafree.setsystems",
    "kernels": "ultrafree._kernels",
    "graphs": "ultrafree.graphs",
    "convexity": "ultrafree.convexity",
    "ultra": "ultrafree.ultra",
    "decompose": "ultrafree.decompose",
    "constructions": "ultrafree.constructions",
    "io": "ultrafree.io",
    "reports": "ultrafree.reports",
}


def _tableau_cells(c, A, b):
    # the dense tableau of max_simplex: m rows by n structural + m slack + 1
    m = len(A)
    return m * (len(c) + m + 1)


# work counters computed from a span's arguments: span name -> counter
WORK_COUNTERS = {"lp.max_simplex": ("lp.tableau_cells", _tableau_cells)}


def public_functions(layer: str, module) -> dict[str, object]:
    """The functions a layer exposes, by attribute name."""
    if layer == "kernels":
        # kernel names are bound in _kernels/__init__ from the live backend
        return {name: getattr(module, name) for name in module.__all__ if callable(getattr(module, name))}
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # span: [name index, start, end, parent span or -1, command id, raised]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.meters: list[tuple[str, object]] = []
        self.work: dict[str, int] = defaultdict(int)
        self.originals: dict[int, object] = {}

    def wrap(self, layer: str, fn):
        name_idx = len(self.names)
        name = f"{layer}.{fn.__name__}"
        self.names.append(name)
        counter = WORK_COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.work[counter[0]] += counter[1](*args, **kwargs)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, self.command, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import ultrafree.budget

        wrappers: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for fn in public_functions(layer, module).values():
                if id(fn) not in wrappers:
                    self.originals[id(fn)] = fn
                    wrappers[id(fn)] = self.wrap(layer, fn)
        # rebind every module global that holds a wrapped function, so names
        # imported with "from .x import f" are traced too
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and self.originals[id(value)] is value:
                    setattr(module, attr, wrappers[id(value)])

        meter = ultrafree.budget.SearchBudget.meter

        @functools.wraps(meter)
        def traced_meter(budget, op):
            m = meter(budget, op)
            layer = self.names[self.spans[self.stack[-1]][0]].split(".")[0] if self.stack else "cli"
            self.meters.append((f"{layer}.{op}.nodes", m))
            return m

        ultrafree.budget.SearchBudget.meter = traced_meter

    def unwrapped_bindings(self) -> list[str]:
        """Module globals and class attributes still bound to an original."""
        found = []
        for module in _package_modules():
            scopes = [(module.__name__, vars(module))]
            scopes += [
                (f"{module.__name__}.{k}", vars(v))
                for k, v in vars(module).items()
                if isinstance(v, type) and v.__module__ == module.__name__
            ]
            for where, scope in scopes:
                for attr, value in scope.items():
                    if id(value) in self.originals and self.originals[id(value)] is value:
                        found.append(f"{where}.{attr}")
        return found

    def aggregate(self, total_s: float) -> tuple[dict, list[str]]:
        """Per-layer self time, calls, errors; per-op nodes; work counts."""
        problems = []
        layer_of = [n.split(".")[0] for n in self.names]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        top_level = 0.0
        for span in self.spans:
            name_idx, start, end, parent, _, raised = span
            layer = layer_of[name_idx]
            dur = end - start
            calls[layer] += 1
            self_s[layer] += dur
            if parent < 0:
                top_level += dur
            else:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    problems.append(f"span {self.names[name_idx]} is not nested in its parent")
                self_s[layer_of[p[0]]] -= dur
            if raised and (parent < 0 or layer_of[self.spans[parent][0]] != layer):
                errors[layer] += 1
        layers_sum = sum(self_s.values())
        if abs(layers_sum - top_level) > 1e-6 * max(1.0, top_level):
            problems.append(f"layer self times sum to {layers_sum}, top-level spans to {top_level}")
        if any(v < -1e-9 for v in self_s.values()):
            problems.append("a layer has negative self time")
        cli_self = total_s - layers_sum
        if cli_self < 0:
            problems.append("cli residual is negative")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.errors"] = errors.get(layer, 0)
        nodes: dict[str, int] = defaultdict(int)
        for key, m in self.meters:
            nodes[key] += m.nodes
        out.update(nodes)
        out.update(self.work)
        out["catalog.canonical_forms"] = sum(
            1 for span in self.spans if self.names[span[0]] == "catalog.canonical_form"
        )
        out["cli.self_s"] = cli_self
        return out, problems

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command", "raised"],
                       "names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ultrafree" or name.startswith("ultrafree."))]


def run_job(job: dict, result_path: str, spans_path: str) -> None:
    from ultrafree import cli

    tracer = Tracer()
    tracer.install()
    problems = [f"unwrapped binding {b}" for b in tracer.unwrapped_bindings()]
    commands = []
    total = 0.0
    extra = ["--budget-nodes", str(job["budget_nodes"])]
    for i, argv in enumerate(job["commands"]):
        tracer.command = i
        buf = io.StringIO()
        raised = False
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(argv) + extra)
            except Exception as e:  # recorded as a failed command
                code, raised = f"raised {type(e).__name__}: {e}", True
            total += time.perf_counter() - t0
        commands.append({"code": code, "stdout": buf.getvalue(), "raised": raised})
    metrics, agg_problems = tracer.aggregate(total)
    metrics["cli.calls"] = len(commands)
    metrics["cli.errors"] = sum(c["raised"] for c in commands)
    tracer.dump_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"total_s": total, "metrics": metrics, "commands": commands,
                   "problems": problems + agg_problems, "spans": len(tracer.spans)}, fh)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        run_job(json.load(fh), sys.argv[2], sys.argv[3])
