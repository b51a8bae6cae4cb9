"""Command-line front end: generators, analyzers, and verification suites.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input
error, 3 a search budget or another resource (recursion depth, memory)
ran out; no answer was computed.  With --json every result (and every
error) is a single JSON object on stdout.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from contextlib import nullcontext
from functools import partial
from importlib import import_module
from types import SimpleNamespace

# what every command runs; a command imports each other layer where it
# runs it, so a process loads only the layers its command needs
from .budget import BudgetExceeded, SearchBudget
from .errors import ClaimViolation, PreconditionViolated
from .graphs import Graph, codegree_min, is_kr_free
from .io import (
    ParseError,
    _load_json,
    _parse_dimacs,
    decomposition_to_obj,
    emit_dimacs,
    emit_graph_json,
    graph_from_obj,
    graph_to_obj,
    load_text,
    parse_graph,
    parse_space,
    system_from_obj,
)
from .reports import Check, Report, _verdict, digest_of, jsonable

__all__ = ["main", "run"]

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DEFAULT_SEED = 20260301
_EXTENDED_COUNT = 40
# graphs per correspondence_checks call in the correspondence suite
_BLOCK = 32


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    # "P" or "P/Q" only; decimals would silently lose precision
    if not _FRACTION_RE.match(text):
        raise ValueError(f"expected a rational like 3 or 1/28, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_params(text: str | None) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"parameter {item!r} is not of the form key=value")
        key = key.strip()
        if key in out:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(f"parameter {key!r} needs an integer value") from None
    return out


# -------------------------------------------------------------------- gen

# family -> (its parameters, the layer that builds it, entry(layer, params))
_FAMILIES = {
    "complete": (("n",), "graphs", lambda m, p: m.Graph.complete(p["n"])),
    "empty": (("n",), "graphs", lambda m, p: m.Graph.empty(p["n"])),
    "cycle": (("n",), "graphs", lambda m, p: m.Graph.cycle(p["n"])),
    "path": (("n",), "graphs", lambda m, p: m.Graph.path(p["n"])),
    "turan": (("n", "parts"), "constructions", lambda m, p: m.turan(p["n"], p["parts"])),
    "kneser": (("m", "k"), "constructions", lambda m, p: m.kneser(p["m"], p["k"])),
    "crown": (("t",), "constructions", lambda m, p: m.crown(p["t"])),
    "half-min": (("k",), "constructions", lambda m, p: m.half_min(p["k"])),
    "hypercube-lb": (("d",), "constructions", lambda m, p: m.hypercube_lb(p["d"]).G),
    "hypercube-lb-quotient": (("d",), "constructions", lambda m, p: m.hypercube_lb(p["d"]).H),
    "ultra-vc": (("m",), "constructions", lambda m, p: m.ultra_vc_example(p["m"])),
    "c5-blowup": (("s",), "constructions", lambda m, p: m.blowup(Graph.cycle(5), [p["s"]] * 5)),
    "random": (
        ("n", "num", "den", "seed"),
        "constructions",
        lambda m, p: m.random_graph(p["n"], p["num"], p["den"], p["seed"]),
    ),
}


def _layer(name: str):
    """The package module ``name``, imported on first use."""
    return import_module(f"{__package__}.{name}")


def _write(args, text: str) -> None:
    """Send ``text`` to the --out file, or to stdout when none is named."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise ValueError(
            f"unknown family {args.family!r}; choose from {', '.join(sorted(_FAMILIES))}"
        )
    wanted, layer, make = _FAMILIES[args.family]
    params = _parse_params(args.params)
    if set(params) != set(wanted):
        raise ValueError(
            f"family {args.family!r} needs exactly --params "
            + ",".join(f"{k}=..." for k in wanted)
        )
    G = make(_layer(layer), params)
    _write(args, emit_dimacs(G) if args.format == "dimacs" else emit_graph_json(G) + "\n")
    return 0


# ---------------------------------------------------------------- metrics

# token name -> (number of integer arguments, the layer that computes it,
# entry(layer, input, *ints)).  Each entry names its function on the layer
# module inside a lambda, as _FAMILIES does, so the module attribute is
# looked up when the metric runs: a rebound attribute (a test's patch, a
# profiler's wrapper) is the function called.
_GRAPH_METRICS = {
    "chi": (0, "graphs", lambda m, G: m.chromatic_number(G)),
    "omega": (0, "graphs", lambda m, G: m.clique_number(G)),
    "mis": (0, "setsystems", lambda m, G: len(m.mis_family(G))),
    "nubi": (0, "ultra", lambda m, G: m.nu_bi(G)[0]),
    "ultra": (1, "ultra", lambda m, G, r: m.ultra_parameter(G, r).epsilon_star),
    "codegree": (1, "graphs", lambda m, G, a: m.codegree_min(G, a)),
    "codensity": (2, "graphs", lambda m, G, a, b: m.clique_codensity(G, a, b)),
}

_SETSYS_METRICS = {
    "tau": (0, "setsystems", lambda m, F: m.transversal_number(F)[0]),
    "nu": (0, "setsystems", lambda m, F: m.matching_number(F)[0]),
    "taustar": (0, "setsystems", lambda m, F: m.fractional_transversal(F).value),
    "vc": (0, "setsystems", lambda m, F: m.vc_dimension(F)[0]),
    "helly": (0, "setsystems", lambda m, F: m.helly_number(F)),
    "pq": (2, "setsystems", lambda m, F, p, q: m.has_pq_property(F, p, q)),
}


def _print_metrics(table: dict, kind: str, load, args) -> int:
    """Evaluate each ``NAME[:INT...]`` token of --metrics on ``load(args)``.
    Every token is checked before the input is loaded or any metric runs,
    so a malformed list is a usage error however costly the loading or
    the metrics before the bad token are."""
    calls = []
    for tok in args.metrics.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, *ints = tok.split(":")
        try:
            if name not in table or table[name][0] != len(ints):
                raise ValueError
            calls.append((tok, *table[name][1:], [int(i) for i in ints]))
        except ValueError:
            raise ValueError(f"unknown {kind} metric {tok!r}") from None
    x = load(args)
    _print_payload(args, {tok: entry(_layer(layer), x, *ints) for tok, layer, entry, ints in calls})
    return 0


def _load_system(args):
    """The set system named by ``args.file``, derived as --derive says."""
    from .setsystems import dual, mis_family, mis_star_system, neighborhood_system

    text = load_text(args.file)
    obj = _load_json(text) if text.lstrip().startswith("{") else None
    is_system = isinstance(obj, dict) and "ground" in obj and "sets" in obj
    derive = args.derive or ("none" if is_system else "stars")
    if is_system:
        F = system_from_obj(obj)
        if derive == "dual":
            F = dual(F)
        elif derive != "none":
            raise ValueError(f"--derive {derive} needs a graph input")
    else:
        G = _parse_dimacs(text) if obj is None else graph_from_obj(obj)
        if derive == "stars":
            F = mis_star_system(G)
        elif derive == "mis":
            F = mis_family(G)
        elif derive == "neighborhoods":
            F = neighborhood_system(G)
        else:
            raise ValueError(f"--derive {derive} needs a set-system input")
    return F


# ------------------------------------------------------------------ space


def _load_measure(spec: str, size: int) -> Measure:
    from .convexity import Measure

    if spec == "uniform":
        return Measure.uniform(size)
    obj = _load_json(load_text(spec))
    if not isinstance(obj, dict):
        raise ParseError("measure JSON must map point indices to rationals")
    seen = set()
    for k in obj:
        if not (k.isdecimal() and int(k) < size):
            raise ParseError(f"measure point {k!r} is not in 0..{size - 1}")
        if int(k) in seen:
            raise ParseError(f"measure names point {int(k)} twice (key {k!r})")
        seen.add(int(k))
    return Measure({int(k): _parse_fraction(str(v)) for k, v in obj.items()})


def _cmd_space(args) -> int:
    from .convexity import radon_number, space_helly_number, weak_eps_net

    if args.measure is not None and args.weak_net is None:
        raise ValueError("--measure needs --weak-net")
    S = parse_space(args.file)
    out = {"kind": S.tag, "points": S.ground_size, "generators": len(S.generators)}
    if args.helly:
        out["helly"] = space_helly_number(S)
    if args.radon_cap is not None:
        out["radon"] = radon_number(S, args.radon_cap)
    if args.weak_net is not None:
        eps = _parse_fraction(args.weak_net)
        mu = _load_measure("uniform" if args.measure is None else args.measure, S.ground_size)
        out["weak_net"] = list(weak_eps_net(S, mu, eps))
    _print_payload(args, out)
    return 0


# -------------------------------------------------------------- decompose


def _cmd_decompose(args) -> int:
    from .decompose import haussler_partition, twin_quotient

    if args.method == "twin":
        for opt in ("r", "eps"):
            if getattr(args, opt) is not None:
                raise ValueError(f"--method twin takes no --{opt}")
        D = twin_quotient(parse_graph(args.file))
    else:
        if args.eps is None:
            raise ValueError("--method haussler requires --eps P/Q")
        r = 3 if args.r is None else args.r
        D = haussler_partition(parse_graph(args.file), r, _parse_fraction(args.eps))
    _write(args, json.dumps(decomposition_to_obj(D), indent=2 if args.json else None) + "\n")
    return 0


# ----------------------------------------------------------------- verify
#
# A suite is a generator of (instance, checks) pairs; _cmd_verify tallies
# them into one check per rule.  The instance is a callable that returns
# the instance's JSON form, called only for a rule's first failure.


def _tally(pairs) -> list[Check]:
    """One check per rule: its pass, skip and total counts over all
    instances, with the first failing instance kept as the witness."""
    # one slot per check name: [rule, passes, skips, total, witness]
    slots: dict[str, list] = {}
    for instance, checks in pairs:
        for chk in checks:
            slot = slots.get(chk.name)
            if slot is None:
                slot = slots[chk.name] = [chk.rule, 0, 0, 0, None]
            slot[3] += 1
            status = chk.status
            if status == "pass":
                slot[1] += 1
            elif status == "skipped":
                slot[2] += 1
            elif slot[4] is None:
                slot[4] = {
                    "instance": instance(),
                    "value": chk.value,
                    "witness": chk.witness,
                }
    out = []
    for name, (rule, passed, skipped, total, witness) in slots.items():
        value = {"pass": passed, "total": total}
        if skipped:
            value["skipped"] = skipped
        status = "fail" if witness is not None else "pass" if passed else "skipped"
        out.append(Check(name, rule, status, value=value, witness=witness))
    return out


def _instance(G: Graph, **extra):
    d = graph_to_obj(G)
    d.update(extra)
    return d


def _catalog(kind: str, seed: int) -> list[Graph]:
    from .catalog import connected_graphs, seeded_random_graphs

    cat = connected_graphs(7)
    if kind == "extended":
        cat = cat + seeded_random_graphs(_EXTENDED_COUNT, 12, seed)
    return cat


def _suite_correspondence(catalog, seed):
    from .convexity import correspondence_checks

    # a block at a time: each solver runs over the block before the next
    # one starts, and only one block's checks are held at once
    cat = _catalog(catalog, seed)
    for start in range(0, len(cat), _BLOCK):
        block = cat[start : start + _BLOCK]
        for G, by_r in zip(block, correspondence_checks(block, (3, 4, 5))):
            for r, checks in by_r.items():
                yield partial(_instance, G, r=r), checks


def _suite_halfgraph():
    from .constructions import blowup, hypercube_lb
    from .ultra import find_half_graph, ultra_parameter

    instances: list[tuple[str, Graph]] = [("cycle:n=5", Graph.cycle(5))]
    instances.append(("hypercube-lb:d=2", hypercube_lb(2).G))
    for s in range(2, 9):
        instances.append((f"c5-blowup:s={s}", blowup(Graph.cycle(5), [s] * 5)))
    for name, G in instances:
        es = ultra_parameter(G, 3).epsilon_star
        positive = es is not None and es > 0
        # an instance that is not ultra skips the half-graph check
        ok = detail = None
        if positive:
            k = math.ceil(1 / es) + 1
            emb = find_half_graph(G, k)
            ok = emb is None
            detail = {"k": k} if ok else {"k": k, "embedding": [emb.xs, emb.ys]}
        yield partial(str, name), [
            _verdict(
                "instance-is-ultra",
                "positive-clique-density-parameter",
                positive,
                {"epsilon_star": es},
            ),
            _verdict("no-half-graph-at-threshold", "density-forbids-large-half-graphs", ok, detail),
        ]


def _suite_construction(d):
    from .constructions import hypercube_lb
    from .decompose import p4_obstruction, twin_quotient

    if d < 2:
        raise ValueError("construction suite needs d >= 2")
    H, G = hypercube_lb(d)
    expected = (2 * d + 1) << d
    cd = codegree_min(G, 2)
    # the classes come out by first vertex and blowup lays out H's copies
    # part-major in H's order, so the labelled quotient is H itself
    quotient = twin_quotient(G).quotient
    # G + uv holds a triangle iff u and v share a neighbour, and the
    # quotient is triangle-free iff G is
    maximal = is_kr_free(quotient, 3) and (cd is None or cd >= 1)
    core = p4_obstruction(G).core
    yield partial(str, f"hypercube-lb:d={d}"), [
        _verdict(
            "construction-size",
            "blowup-size-formula",
            G.n == expected,
            {"n": G.n, "expected": expected},
        ),
        _verdict(
            "min-codegree",
            "codegree-scales-with-dimension",
            cd is not None and cd >= 1 << (d - 2),
            {"min_codegree": cd, "required": 1 << (d - 2)},
        ),
        _verdict("maximal-triangle-free", "construction-is-maximal-triangle-free", maximal),
        _verdict(
            "twin-quotient-matches",
            "twin-quotient-recovers-base",
            quotient == H,
            {"quotient_size": quotient.n, "base_size": H.n},
        ),
        _verdict(
            "p4-core-size",
            "obstruction-core-lower-bound",
            len(core) >= 1 << (d - 1),
            {"core": len(core), "required": 1 << (d - 1)},
        ),
    ]


def _suite_mindeg_ultra():
    from .constructions import turan
    from .decompose import min_degree_ultra_check

    for r in (3, 4, 5):
        for n in range(r - 1, 31):
            name = f"turan:n={n}:parts={r - 1}:r={r}"
            yield partial(str, name), min_degree_ultra_check(turan(n, r - 1), r)


def _suite_codeg_edge(catalog, seed):
    from .decompose import codegree_density_check

    for G in _catalog(catalog, seed):
        yield partial(_instance, G), codegree_density_check(G)


def _suite_vc_chromatic(catalog, seed):
    from fractions import Fraction

    from .decompose import vc_chromatic_partition

    triangle_free = [G for G in _catalog(catalog, seed) if G.n and is_kr_free(G, 3)]
    for c in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        for G in triangle_free:
            if G.min_degree() >= c * G.n:
                yield partial(_instance, G, c=str(c)), vc_chromatic_partition(G, c)[1]


# the options only the catalog suites read, with their defaults
_CATALOG_OPTIONS = {"catalog": "small", "seed": _DEFAULT_SEED}

# suite name -> (suite, the verify options it reads, its token parameter
# as (key, default) or None); the digest hashes the suite name with all
# of these parameters
_SUITES = {
    "correspondence": (_suite_correspondence, _CATALOG_OPTIONS, None),
    "halfgraph": (_suite_halfgraph, (), None),
    "construction": (_suite_construction, (), ("d", 3)),
    "mindeg-ultra": (_suite_mindeg_ultra, (), None),
    "codeg-edge": (_suite_codeg_edge, _CATALOG_OPTIONS, None),
    "vc-chromatic": (_suite_vc_chromatic, _CATALOG_OPTIONS, None),
}


def _suite_form(name: str) -> str:
    param = _SUITES[name][2]
    return name if param is None else f"{name}:{param[0]}={param[0].upper()}"


def _cmd_verify(args) -> int:
    token = args.suite
    name, colon, text = token.partition(":")
    if name not in _SUITES:
        forms = [_suite_form(n) for n in _SUITES]
        raise ValueError(f"unknown suite; choose {', '.join(forms[:-1])}, or {forms[-1]}")
    suite, options, param = _SUITES[name]
    params = {}
    for opt, default in _CATALOG_OPTIONS.items():
        given = getattr(args, opt)
        if opt in options:
            params[opt] = default if given is None else given
        elif given is not None:
            raise ValueError(f"suite {name} takes no --{opt}")
    # only the extended catalog reads the seed; the small one would hash
    # it into the digest and run the same graphs
    if args.seed is not None and params["catalog"] == "small":
        raise ValueError("--seed needs --catalog extended")
    if param is None:
        if colon:
            raise ValueError(f"suite {name} takes no parameter, got {token!r}")
    else:
        key, value = param
        if colon:
            given, sep, value = text.partition("=")
        try:
            if colon and (given != key or not sep):
                raise ValueError
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"{name} suite takes {_suite_form(name)}") from None
    checks = _tally(suite(**params))
    rep = Report(digest_of({"suite": name, **params}), checks)
    if args.json:
        print(rep.dumps())
    else:
        for line in rep.summary_lines():
            print(line)
        verdict = "PASSED" if rep.passed else "FAILED"
        print(f"suite {token}: {verdict}")
    return 0 if rep.passed else 1


# ------------------------------------------------------------------- main


def _print_payload(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(jsonable(payload), indent=2, sort_keys=True))
    else:
        for k, v in payload.items():
            print(f"{k} = {json.dumps(jsonable(v))}")


def _stdout_to_devnull() -> None:
    """Point stdout at devnull once its reader has closed the pipe, so that
    no later write or flush, up to the one at exit, meets the pipe again."""
    fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(fd, sys.stdout.fileno())
    os.close(fd)


def _emit_error(args, kind: str, message: str, code: int) -> int:
    if getattr(args, "json", False):
        obj = {"error": {"type": kind, "message": message}}
        try:
            print(json.dumps(obj, indent=2, sort_keys=True), flush=True)
        except BrokenPipeError:
            # no reader is left for the report; the exit code still says it
            _stdout_to_devnull()
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


# ------------------------------------------------------------ command line


class _Option:
    """One ``--option`` of the command line: the type of its value (bool
    for a flag, which takes none), the values it may take, its value when
    not given, whether it must be given, and its value's name in the
    usage line."""

    __slots__ = ("type", "choices", "default", "required", "metavar")

    def __init__(self, type=str, choices=(), default=None, required=False, metavar=None):
        self.type = type
        self.choices = choices
        self.default = False if type is bool else default
        self.required = required
        self.metavar = "{" + ",".join(choices) + "}" if choices else metavar


# the options every command takes
_COMMON = {
    "--budget-nodes": _Option(int, metavar="N"),
    "--budget-ms": _Option(int, metavar="T"),
    "--json": _Option(bool),
}

# command -> (handler, one-line help, positionals, its own options)
_COMMANDS = {
    "gen": (
        _cmd_gen,
        "emit a constructed graph",
        ("family",),
        {
            "--params": _Option(default="", metavar="k=v,..."),
            "--format": _Option(choices=("json", "dimacs"), default="json"),
            "--out": _Option(metavar="FILE"),
        },
    ),
    "analyze": (
        partial(_print_metrics, _GRAPH_METRICS, "graph", lambda a: parse_graph(a.file)),
        "graph metrics",
        ("file",),
        {"--metrics": _Option(required=True, metavar="METRICS")},
    ),
    "setsys": (
        partial(_print_metrics, _SETSYS_METRICS, "set-system", _load_system),
        "set-system metrics",
        ("file",),
        {
            "--derive": _Option(choices=("stars", "mis", "neighborhoods", "dual", "none")),
            "--metrics": _Option(required=True, metavar="METRICS"),
        },
    ),
    "space": (
        _cmd_space,
        "convexity-space metrics",
        ("file",),
        {
            "--radon-cap": _Option(int, metavar="K"),
            "--weak-net": _Option(metavar="EPS"),
            # None when not given: _cmd_space reads it only with --weak-net
            "--measure": _Option(metavar="uniform|FILE"),
            "--helly": _Option(bool),
        },
    ),
    "decompose": (
        _cmd_decompose,
        "blow-up decomposition",
        ("file",),
        {
            # None when not given: _cmd_decompose uses r = 3 with haussler
            "--r": _Option(int, metavar="R"),
            "--eps": _Option(metavar="P/Q"),
            "--method": _Option(choices=("haussler", "twin"), default="haussler"),
            "--out": _Option(metavar="FILE"),
        },
    ),
    "verify": (
        _cmd_verify,
        "run a verification suite",
        (),
        {
            "--suite": _Option(required=True, metavar="SUITE"),
            # None when not given: _cmd_verify fills in the catalog suites' defaults
            "--catalog": _Option(choices=("small", "extended")),
            "--seed": _Option(int, metavar="SEED"),
        },
    ),
}

_HELP = ("-h", "--help")
# a token that begins with "-" and is still a value: a negative number
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
# the width a usage line wraps at
_WIDTH = 78


class _UsageError(ValueError):
    """A malformed command line; ``command`` names the command whose usage
    line heads the message, None for the top level's."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _usage(command: str | None) -> str:
    """The usage line of ``command``, or of the top level for None."""
    if command is None:
        return f"usage: ultrafree [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positionals, own = _COMMANDS[command]
    parts = ["[-h]"]
    for name, opt in {**_COMMON, **own}.items():
        part = name if opt.type is bool else f"{name} {opt.metavar}"
        parts.append(part if opt.required else f"[{part}]")
    head = f"usage: ultrafree {command}"
    flat = " ".join([head, *parts, *positionals])
    if len(flat) <= _WIDTH:
        return flat
    # too wide: the options wrap under the command's name, and the
    # positionals start a line of their own
    indent = " " * (len(head) + 1)
    lines = []
    for line, group in ((head, parts), (None, positionals)):
        for part in group:
            if line is not None and len(line) + 1 + len(part) > _WIDTH:
                lines.append(line)
                line = None
            line = indent + part if line is None else f"{line} {part}"
        if line is not None:
            lines.append(line)
    return "\n".join(lines)


def _cmd_help(args) -> int:
    """Print the usage and help of ``args.command``, or the top level's."""
    if args.command is None:
        lines = ["Exact solvers and verification suites for clique-density-critical graphs.", "", "commands:"]
        lines += [f"  {name:<11}{spec[1]}" for name, spec in _COMMANDS.items()]
    else:
        lines = [_COMMANDS[args.command][1]]
    sys.stdout.write("\n".join([_usage(args.command), "", *lines, ""]))
    return 0


def _help_args(command: str | None):
    # help runs under no budget, whatever options came before it
    return SimpleNamespace(command=command, func=_cmd_help, budget_nodes=None, budget_ms=None, json=False)


def _option(token: str, options: dict):
    """``(name, explicit value or None)`` when argv ``token`` is an option,
    with name None for an unknown one; None when ``token`` is a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options or token in _HELP:
        return token, None
    name, eq, value = token.partition("=")
    if eq and (name in options or name in _HELP):
        return name, value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _parse_command(command: str, argv):
    """The namespace that ``argv``, the tokens after ``command``, give it,
    with the tokens it takes none of, in their order."""
    handler, _, positionals, own = _COMMANDS[command]
    options = {**_COMMON, **own}
    values = {name: opt.default for name, opt in options.items()}
    taken, rest = [], []
    dashed = False
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not dashed:
            # every later token is a value
            dashed = True
            continue
        found = None if dashed else _option(token, options)
        if found is None or found[0] is None:
            fits = found is None and len(taken) < len(positionals)
            (taken if fits else rest).append(token)
            continue
        name, value = found
        if name in _HELP:
            if value is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}", command)
            return _help_args(command), []
        opt = options[name]
        if opt.type is bool:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}", command)
            value = True
        else:
            if value is None:
                if i == len(argv) or _option(argv[i], options) is not None:
                    raise _UsageError(f"argument {name}: expected one argument", command)
                value = argv[i]
                i += 1
            if opt.type is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"argument {name}: invalid int value: {value!r}", command) from None
            if opt.choices and value not in opt.choices:
                choices = ", ".join(map(repr, opt.choices))
                raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})", command)
        values[name] = value
    # a required option has no default, and a given value is never None
    missing = [*positionals[len(taken) :], *(n for n, o in options.items() if o.required and values[n] is None)]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, func=handler, **dict(zip(positionals, taken)), **fields), rest


def _parse_args(argv):
    """The namespace the ``_cmd_*`` handlers read, parsed from ``argv``:
    ``--opt value`` or ``--opt=value``, options and positionals in any
    order, the last of a repeated option winning, no abbreviation, and a
    value that begins with "-" only if it reads as a negative number.  A
    malformed ``argv`` raises _UsageError."""
    unknown = []
    for i, token in enumerate(argv):
        found = _option(token, {})
        if found is None:
            break
        if found[0] is not None:
            if found[1] is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {found[1]!r}")
            return _help_args(None)
        unknown.append(token)
    else:
        raise _UsageError("the following arguments are required: command")
    if token not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
    args, rest = _parse_command(token, argv[i + 1 :])
    unknown += rest
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # main spots --json by its literal name, so no option may be abbreviated
    args = SimpleNamespace(json="--json" in argv)
    try:
        args = _parse_args(argv)
        # the command's one budget; without a --budget-* flag none is in
        # force, and no search opens a meter
        flagged = args.budget_nodes is not None or args.budget_ms is not None
        with SearchBudget(args.budget_nodes, args.budget_ms) if flagged else nullcontext():
            code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as e:
        if args.json:
            return _emit_error(args, "usage", str(e), 2)
        prog = "ultrafree" if e.command is None else f"ultrafree {e.command}"
        print(f"{_usage(e.command)}\n{prog}: error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        return _emit_error(args, "budget", str(e), 3)
    except (RecursionError, MemoryError) as e:
        # a backstop: a search too deep for Python's stack, or too large
        return _emit_error(args, "resource", str(e) or type(e).__name__, 3)
    except ParseError as e:
        return _emit_error(args, "parse-error", str(e), 2)
    except PreconditionViolated as e:
        return _emit_error(args, "precondition", str(e), 2)
    except ClaimViolation as e:
        return _emit_error(args, "claim-violation", str(e), 1)
    except ValueError as e:
        return _emit_error(args, "usage", str(e), 2)
    except OSError as e:
        if isinstance(e, BrokenPipeError):
            _stdout_to_devnull()
        return _emit_error(args, "io", str(e), 2)


def run():
    """The process entry of ``python -m ultrafree.cli`` and of the
    ``ultrafree`` script: ``main()``, then a flush of stdout and stderr,
    then ``os._exit`` with main's exit code.  The process skips the
    interpreter's teardown (and with it any ``atexit`` handler; the
    package registers none), whose memory the OS frees anyway.
    ``main(argv)`` called in-process returns its code to the caller."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_to_devnull()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
