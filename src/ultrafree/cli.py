"""Command-line front end: generators, analyzers, and verification suites.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input
error, 3 a search budget or another resource (recursion depth, memory)
ran out; no answer was computed.  With --json every result (and every
error) is a single JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

from .budget import BudgetExceeded, SearchBudget
from .catalog import connected_graphs, seeded_random_graphs
from .constructions import (
    blowup,
    crown,
    half_min,
    hypercube_lb,
    kneser,
    turan,
    ultra_vc_example,
    random_graph,
)
from .convexity import (
    Measure,
    correspondence_checks,
    radon_number,
    space_helly_number,
    weak_eps_net,
)
from .decompose import (
    codegree_density_check,
    haussler_partition,
    min_degree_ultra_check,
    p4_obstruction,
    twin_quotient,
    vc_chromatic_partition,
)
from .errors import ClaimViolation, PreconditionViolated
from .graphs import (
    Graph,
    chromatic_number,
    clique_codensity,
    clique_number,
    codegree_min,
    is_kr_free,
)
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
from .setsystems import (
    dual,
    fractional_transversal,
    has_pq_property,
    helly_number,
    matching_number,
    mis_family,
    mis_star_system,
    neighborhood_system,
    transversal_number,
    vc_dimension,
)
from .ultra import find_half_graph, nu_bi, ultra_parameter

__all__ = ["main", "run"]

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_DEFAULT_SEED = 20260301
_EXTENDED_COUNT = 40


def _parse_fraction(text: str) -> Fraction:
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

_FAMILIES = {
    "complete": (("n",), lambda p: Graph.complete(p["n"])),
    "empty": (("n",), lambda p: Graph.empty(p["n"])),
    "cycle": (("n",), lambda p: Graph.cycle(p["n"])),
    "path": (("n",), lambda p: Graph.path(p["n"])),
    "turan": (("n", "parts"), lambda p: turan(p["n"], p["parts"])),
    "kneser": (("m", "k"), lambda p: kneser(p["m"], p["k"])),
    "crown": (("t",), lambda p: crown(p["t"])),
    "half-min": (("k",), lambda p: half_min(p["k"])),
    "hypercube-lb": (("d",), lambda p: hypercube_lb(p["d"]).G),
    "hypercube-lb-quotient": (("d",), lambda p: hypercube_lb(p["d"]).H),
    "ultra-vc": (("m",), lambda p: ultra_vc_example(p["m"])),
    "c5-blowup": (("s",), lambda p: blowup(Graph.cycle(5), [p["s"]] * 5)),
    "random": (("n", "num", "den", "seed"), lambda p: random_graph(p["n"], p["num"], p["den"], p["seed"])),
}


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
    wanted, make = _FAMILIES[args.family]
    params = _parse_params(args.params)
    if set(params) != set(wanted):
        raise ValueError(
            f"family {args.family!r} needs exactly --params "
            + ",".join(f"{k}=..." for k in wanted)
        )
    G = make(params)
    _write(args, emit_dimacs(G) if args.format == "dimacs" else emit_graph_json(G) + "\n")
    return 0


# ---------------------------------------------------------------- metrics

# token name -> (number of integer arguments, entry(input, *ints)).
# Each entry names its function inside a lambda, as _FAMILIES does, so the
# module global is looked up when the metric runs: a rebound global (a
# test's patch, a profiler's wrapper) is the function called.
_GRAPH_METRICS = {
    "chi": (0, lambda G: chromatic_number(G)),
    "omega": (0, lambda G: clique_number(G)),
    "mis": (0, lambda G: len(mis_family(G))),
    "nubi": (0, lambda G: nu_bi(G)[0]),
    "ultra": (1, lambda G, r: ultra_parameter(G, r).epsilon_star),
    "codegree": (1, lambda G, a: codegree_min(G, a)),
    "codensity": (2, lambda G, a, b: clique_codensity(G, a, b)),
}

_SETSYS_METRICS = {
    "tau": (0, lambda F: transversal_number(F)[0]),
    "nu": (0, lambda F: matching_number(F)[0]),
    "taustar": (0, lambda F: fractional_transversal(F).value),
    "vc": (0, lambda F: vc_dimension(F)[0]),
    "helly": (0, lambda F: helly_number(F)),
    "pq": (2, lambda F, p, q: has_pq_property(F, p, q)),
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
            calls.append((tok, table[name][1], [int(i) for i in ints]))
        except ValueError:
            raise ValueError(f"unknown {kind} metric {tok!r}") from None
    x = load(args)
    _print_payload(args, {tok: entry(x, *ints) for tok, entry, ints in calls})
    return 0


def _load_system(args):
    """The set system named by ``args.file``, derived as --derive says."""
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
    slots: dict[str, dict] = {}
    for instance, checks in pairs:
        for chk in checks:
            slot = slots.get(chk.name)
            if slot is None:
                slot = slots[chk.name] = {
                    "rule": chk.rule,
                    "pass": 0,
                    "skip": 0,
                    "total": 0,
                    "witness": None,
                }
            slot["total"] += 1
            if chk.status == "pass":
                slot["pass"] += 1
            elif chk.status == "skipped":
                slot["skip"] += 1
            elif slot["witness"] is None:
                slot["witness"] = {
                    "instance": instance(),
                    "value": chk.value,
                    "witness": chk.witness,
                }
    out = []
    for name, slot in slots.items():
        value = {"pass": slot["pass"], "total": slot["total"]}
        if slot["skip"]:
            value["skipped"] = slot["skip"]
        status = "fail" if slot["witness"] is not None else "pass" if slot["pass"] else "skipped"
        out.append(Check(name, slot["rule"], status, value=value, witness=slot["witness"]))
    return out


def _instance(G: Graph, **extra):
    d = graph_to_obj(G)
    d.update(extra)
    return d


def _catalog(kind: str, seed: int) -> list[Graph]:
    cat = connected_graphs(7)
    if kind == "extended":
        cat = cat + seeded_random_graphs(_EXTENDED_COUNT, 12, seed)
    return cat


def _suite_correspondence(catalog, seed):
    for G in _catalog(catalog, seed):
        for r, checks in correspondence_checks(G, (3, 4, 5)).items():
            yield partial(_instance, G, r=r), checks


def _suite_halfgraph():
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
    for r in (3, 4, 5):
        for n in range(r - 1, 31):
            name = f"turan:n={n}:parts={r - 1}:r={r}"
            yield partial(str, name), min_degree_ultra_check(turan(n, r - 1), r)


def _suite_codeg_edge(catalog, seed):
    for G in _catalog(catalog, seed):
        yield partial(_instance, G), codegree_density_check(G)


def _suite_vc_chromatic(catalog, seed):
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


def _emit_error(args, kind: str, message: str, code: int) -> int:
    if getattr(args, "json", False):
        obj = {"error": {"type": kind, "message": message}}
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _build_parser(json_errors: bool) -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        # under --json a usage error becomes the ValueError that main
        # reports as a JSON object; otherwise argparse prints its usage
        def error(self, message):
            if json_errors:
                raise ValueError(message)
            super().error(message)

    # main spots --json by its literal name, so no option may be abbreviated
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--budget-nodes", type=int, default=None, metavar="N")
    common.add_argument("--budget-ms", type=int, default=None, metavar="T")
    common.add_argument("--json", action="store_true")

    parser = Parser(
        prog="ultrafree",
        allow_abbrev=False,
        description="Exact solvers and verification suites for clique-density-critical graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "emit a constructed graph")
    p.add_argument("family")
    p.add_argument("--params", default="", metavar="k=v,...")
    p.add_argument("--format", choices=("json", "dimacs"), default="json")
    p.add_argument("--out", default=None, metavar="FILE")

    graph_metrics = partial(_print_metrics, _GRAPH_METRICS, "graph", lambda a: parse_graph(a.file))
    p = command("analyze", graph_metrics, "graph metrics")
    p.add_argument("file")
    p.add_argument("--metrics", required=True)

    set_metrics = partial(_print_metrics, _SETSYS_METRICS, "set-system", _load_system)
    p = command("setsys", set_metrics, "set-system metrics")
    p.add_argument("file")
    p.add_argument(
        "--derive",
        choices=("stars", "mis", "neighborhoods", "dual", "none"),
        default=None,
    )
    p.add_argument("--metrics", required=True)

    p = command("space", _cmd_space, "convexity-space metrics")
    p.add_argument("file")
    p.add_argument("--radon-cap", type=int, default=None, metavar="K")
    p.add_argument("--weak-net", default=None, metavar="EPS")
    # None when not given: _cmd_space reads it only with --weak-net
    p.add_argument("--measure", default=None, metavar="uniform|FILE")
    p.add_argument("--helly", action="store_true")

    p = command("decompose", _cmd_decompose, "blow-up decomposition")
    p.add_argument("file")
    # None when not given: _cmd_decompose uses r = 3 with haussler
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--eps", default=None, metavar="P/Q")
    p.add_argument("--method", choices=("haussler", "twin"), default="haussler")
    p.add_argument("--out", default=None, metavar="FILE")

    p = command("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--suite", required=True)
    # None when not given: _cmd_verify fills in the catalog suites' defaults
    p.add_argument("--catalog", choices=("small", "extended"), default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(json="--json" in argv)
    try:
        args = _build_parser(args.json).parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except ValueError as e:
        return _emit_error(args, "usage", str(e), 2)
    try:
        # the command's one budget; without a --budget-* flag none is in
        # force, and no search opens a meter
        flagged = args.budget_nodes is not None or args.budget_ms is not None
        with SearchBudget(args.budget_nodes, args.budget_ms) if flagged else nullcontext():
            code = args.func(args)
        sys.stdout.flush()
        return code
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
            # the reader closed stdout: point it at devnull so that neither
            # the error below nor the flush at exit writes to the pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _emit_error(args, "io", str(e), 2)


def run() -> int:
    """The process entry of ``python -m ultrafree.cli`` and of the
    ``ultrafree`` script: ``main()``, then ``gc.freeze()``, so that the
    collections at interpreter exit skip the heap the OS frees anyway.
    ``main(argv)`` called in-process leaves the caller's heap unfrozen."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
