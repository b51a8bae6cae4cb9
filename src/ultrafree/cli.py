"""Command-line front end: generators, analyzers, and verification suites.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input
error, 3 search budget exhausted.  With --json every result (and every
error) is a single JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

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
from .errors import ClaimViolation, InternalContradiction, PreconditionViolated
from .graphs import (
    Graph,
    chromatic_number,
    clique_codensity,
    clique_number,
    codegree_min,
    enumerate_mis,
    is_kr_free,
    is_maximal_kr_free,
)
from .io import (
    ParseError,
    _load_json,
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

__all__ = ["main"]

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
    "c5-blowup": (("s",), lambda p: blowup(Graph.cycle(5), [p["s"]] * 5)[0]),
    "random": (("n", "num", "den", "seed"), lambda p: random_graph(p["n"], p["num"], p["den"], p["seed"])),
}


def _cmd_gen(args, budget) -> int:
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
    text = emit_dimacs(G) if args.format == "dimacs" else emit_graph_json(G) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- analyze


def _graph_metric(tok: str, G: Graph, budget):
    parts = tok.split(":")
    head = parts[0]
    if head == "chi" and len(parts) == 1:
        return chromatic_number(G, budget)
    if head == "omega" and len(parts) == 1:
        return clique_number(G, budget)
    if head == "mis" and len(parts) == 1:
        return len(enumerate_mis(G, budget))
    if head == "nubi" and len(parts) == 1:
        return nu_bi(G, budget)[0]
    if head == "ultra" and len(parts) == 2:
        return ultra_parameter(G, int(parts[1]), budget).epsilon_star
    if head == "codegree" and len(parts) == 2:
        return codegree_min(G, int(parts[1]))
    if head == "codensity" and len(parts) == 3:
        return clique_codensity(G, int(parts[1]), int(parts[2]), budget)
    raise ValueError(f"unknown graph metric {tok!r}")


def _cmd_analyze(args, budget) -> int:
    G = parse_graph(args.file)
    out = {}
    for tok in args.metrics.split(","):
        tok = tok.strip()
        if tok:
            out[tok] = _graph_metric(tok, G, budget)
    _print_payload(args, out)
    return 0


# ----------------------------------------------------------------- setsys


def _setsys_metric(tok: str, F, budget):
    parts = tok.split(":")
    head = parts[0]
    if head == "tau" and len(parts) == 1:
        return transversal_number(F, budget)[0]
    if head == "nu" and len(parts) == 1:
        return matching_number(F, budget)[0]
    if head == "taustar" and len(parts) == 1:
        return fractional_transversal(F, budget).value
    if head == "vc" and len(parts) == 1:
        return vc_dimension(F, budget)[0]
    if head == "helly" and len(parts) == 1:
        return helly_number(F, budget)
    if head == "pq" and len(parts) == 3:
        return has_pq_property(F, int(parts[1]), int(parts[2]))
    raise ValueError(f"unknown set-system metric {tok!r}")


def _cmd_setsys(args, budget) -> int:
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
        G = parse_graph(text) if obj is None else graph_from_obj(obj)
        if derive == "stars":
            F = mis_star_system(G, budget)
        elif derive == "mis":
            F = mis_family(G, budget)
        elif derive == "neighborhoods":
            F = neighborhood_system(G)
        else:
            raise ValueError(f"--derive {derive} needs a set-system input")
    out = {}
    for tok in args.metrics.split(","):
        tok = tok.strip()
        if tok:
            out[tok] = _setsys_metric(tok, F, budget)
    _print_payload(args, out)
    return 0


# ------------------------------------------------------------------ space


def _load_measure(spec: str, size: int) -> Measure:
    if spec == "uniform":
        return Measure.uniform(size)
    obj = _load_json(load_text(spec))
    if not isinstance(obj, dict):
        raise ParseError("measure JSON must map point indices to rationals")
    for k in obj:
        if not (k.isdecimal() and int(k) < size):
            raise ParseError(f"measure point {k!r} is not in 0..{size - 1}")
    return Measure({int(k): _parse_fraction(str(v)) for k, v in obj.items()})


def _cmd_space(args, budget) -> int:
    S = parse_space(args.file, budget)
    out = {"kind": S.tag, "points": S.ground_size, "generators": len(S.generators)}
    if args.helly:
        out["helly"] = space_helly_number(S, budget)
    if args.radon_cap is not None:
        out["radon"] = radon_number(S, args.radon_cap)
    if args.weak_net is not None:
        eps = _parse_fraction(args.weak_net)
        mu = _load_measure(args.measure, S.ground_size)
        out["weak_net"] = list(weak_eps_net(S, mu, eps))
    _print_payload(args, out)
    return 0


# -------------------------------------------------------------- decompose


def _cmd_decompose(args, budget) -> int:
    G = parse_graph(args.file)
    if args.method == "twin":
        D = twin_quotient(G)
    else:
        if args.eps is None:
            raise ValueError("--method haussler requires --eps P/Q")
        D = haussler_partition(G, args.r, _parse_fraction(args.eps), budget)
    text = json.dumps(decomposition_to_obj(D), indent=2 if args.json else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------- verify


class _SuiteAgg:
    """Per-rule tallies over many instances; first failure kept as witness."""

    def __init__(self):
        self.slots: dict[str, dict] = {}

    def _slot(self, name: str, rule: str) -> dict:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = {
                "rule": rule,
                "pass": 0,
                "skip": 0,
                "total": 0,
                "witness": None,
            }
        return slot

    def add_check(self, chk: Check, instance) -> None:
        slot = self._slot(chk.name, chk.rule)
        slot["total"] += 1
        if chk.status == "pass":
            slot["pass"] += 1
        elif chk.status == "skipped":
            slot["skip"] += 1
        elif slot["witness"] is None:
            slot["witness"] = {
                "instance": instance,
                "value": jsonable(chk.value),
                "witness": jsonable(chk.witness),
            }

    def add_report(self, rep: Report, instance) -> None:
        for chk in rep.checks:
            self.add_check(chk, instance)

    def add_bool(self, name: str, rule: str, ok, instance, detail=None) -> None:
        # ok may be None for a skipped instance
        self.add_check(_verdict(name, rule, ok, value=detail, witness=detail), instance)

    def report(self, digest: str) -> Report:
        checks = []
        for name, slot in self.slots.items():
            fails = slot["total"] - slot["pass"] - slot["skip"]
            if fails:
                status = "fail"
            elif slot["pass"] == 0 and slot["total"] > 0:
                status = "skipped"
            else:
                status = "pass"
            value = {"pass": slot["pass"], "total": slot["total"]}
            if slot["skip"]:
                value["skipped"] = slot["skip"]
            checks.append(
                Check(name, slot["rule"], status, value=value, witness=slot["witness"])
            )
        return Report(digest, checks)


def _instance(G: Graph, **extra):
    d = graph_to_obj(G)
    d.update(extra)
    return d


def _catalog(kind: str, seed: int) -> list[Graph]:
    cat = connected_graphs(7)
    if kind == "extended":
        cat = cat + seeded_random_graphs(_EXTENDED_COUNT, 12, seed)
    return cat


def _suite_correspondence(args, budget) -> Report:
    cat = _catalog(args.catalog, args.seed)
    agg = _SuiteAgg()
    for G in cat:
        for r, checks in correspondence_checks(G, (3, 4, 5), budget).items():
            instance = _instance(G, r=r)
            for chk in checks:
                agg.add_check(chk, instance)
    return agg.report(
        digest_of({"suite": "correspondence", "catalog": args.catalog, "seed": args.seed})
    )


def _suite_halfgraph(args, budget) -> Report:
    instances: list[tuple[str, Graph]] = [("cycle:n=5", Graph.cycle(5))]
    instances.append(("hypercube-lb:d=2", hypercube_lb(2).G))
    for s in range(2, 9):
        instances.append((f"c5-blowup:s={s}", blowup(Graph.cycle(5), [s] * 5)[0]))
    agg = _SuiteAgg()
    for name, G in instances:
        cert = ultra_parameter(G, 3, budget)
        es = cert.epsilon_star
        positive = es is not None and es > 0
        agg.add_bool(
            "instance-is-ultra",
            "positive-clique-density-parameter",
            positive,
            name,
            detail={"epsilon_star": es},
        )
        if not positive:
            agg.add_bool(
                "no-half-graph-at-threshold",
                "density-forbids-large-half-graphs",
                None,
                name,
            )
            continue
        k = math.ceil(1 / es) + 1
        emb = find_half_graph(G, k, budget)
        agg.add_bool(
            "no-half-graph-at-threshold",
            "density-forbids-large-half-graphs",
            emb is None,
            name,
            detail={"k": k} if emb is None else {"k": k, "embedding": [emb.xs, emb.ys]},
        )
    return agg.report(digest_of({"suite": "halfgraph"}))


def _suite_construction(args, budget, d: int) -> Report:
    if d < 2:
        raise ValueError("construction suite needs d >= 2")
    H, G = hypercube_lb(d)
    name = f"hypercube-lb:d={d}"
    agg = _SuiteAgg()
    expected = (2 * d + 1) << d
    agg.add_bool(
        "construction-size",
        "blowup-size-formula",
        G.n == expected,
        name,
        detail={"n": G.n, "expected": expected},
    )
    cd = codegree_min(G, 2)
    agg.add_bool(
        "min-codegree",
        "codegree-scales-with-dimension",
        cd is not None and cd >= 1 << (d - 2),
        name,
        detail={"min_codegree": cd, "required": 1 << (d - 2)},
    )
    agg.add_bool(
        "maximal-triangle-free",
        "construction-is-maximal-triangle-free",
        is_maximal_kr_free(G, 3, budget),
        name,
        detail=None,
    )
    # the classes come out by first vertex and blowup lays out H's copies
    # part-major in H's order, so the labelled quotient is H itself
    quotient = twin_quotient(G).quotient
    agg.add_bool(
        "twin-quotient-matches",
        "twin-quotient-recovers-base",
        quotient == H,
        name,
        detail={"quotient_size": quotient.n, "base_size": H.n},
    )
    core = p4_obstruction(G, budget).core
    agg.add_bool(
        "p4-core-size",
        "obstruction-core-lower-bound",
        len(core) >= 1 << (d - 1),
        name,
        detail={"core": len(core), "required": 1 << (d - 1)},
    )
    return agg.report(digest_of({"suite": "construction", "d": d}))


def _suite_mindeg_ultra(args, budget) -> Report:
    agg = _SuiteAgg()
    for r in (3, 4, 5):
        for n in range(r - 1, 31):
            G = turan(n, r - 1)
            name = f"turan:n={n}:parts={r - 1}:r={r}"
            eps = Fraction(G.min_degree(), n) - Fraction(2 * r - 5, 2 * r - 3)
            if eps <= 0:
                agg.add_bool("degree-hypothesis", "min-degree-meets-threshold", None, name)
                agg.add_bool(
                    "ultra-parameter-lower-bound", "degree-implies-clique-density", None, name
                )
                continue
            agg.add_report(min_degree_ultra_check(G, r, eps, budget), name)
    return agg.report(digest_of({"suite": "mindeg-ultra"}))


def _suite_codeg_edge(args, budget) -> Report:
    cat = _catalog(args.catalog, args.seed)
    agg = _SuiteAgg()
    for G in cat:
        agg.add_report(codegree_density_check(G, budget), _instance(G))
    return agg.report(
        digest_of({"suite": "codeg-edge", "catalog": args.catalog, "seed": args.seed})
    )


def _suite_vc_chromatic(args, budget) -> Report:
    cat = _catalog(args.catalog, args.seed)
    agg = _SuiteAgg()
    for c in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        for G in cat:
            if G.n == 0 or not is_kr_free(G, 3, budget):
                continue
            if Fraction(G.min_degree()) < c * G.n:
                continue
            colors, rep = vc_chromatic_partition(G, c, budget)
            agg.add_report(rep, _instance(G, c=str(c)))
    return agg.report(
        digest_of({"suite": "vc-chromatic", "catalog": args.catalog, "seed": args.seed})
    )


_SUITES = {
    "correspondence": _suite_correspondence,
    "halfgraph": _suite_halfgraph,
    "mindeg-ultra": _suite_mindeg_ultra,
    "codeg-edge": _suite_codeg_edge,
    "vc-chromatic": _suite_vc_chromatic,
}


def _cmd_verify(args, budget) -> int:
    token = args.suite
    name, colon, param = token.partition(":")
    if name == "construction":
        d = 3
        if colon:
            key, sep, val = param.partition("=")
            if key != "d" or not sep:
                raise ValueError("construction suite takes construction:d=D")
            d = int(val)
        rep = _suite_construction(args, budget, d)
    elif name in _SUITES:
        if colon:
            raise ValueError(f"suite {name} takes no parameter, got {token!r}")
        rep = _SUITES[name](args, budget)
    else:
        raise ValueError(
            "unknown suite; choose correspondence, halfgraph, construction:d=D, "
            "mindeg-ultra, codeg-edge, or vc-chromatic"
        )
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


def _emit_error(args, kind: str, message: str, code: int, witness=None) -> int:
    if getattr(args, "json", False):
        obj = {"error": {"type": kind, "message": message}}
        if witness is not None:
            obj["error"]["witness"] = jsonable(witness)
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _budget_from(args) -> SearchBudget | None:
    millis = args.budget_ms
    if millis is None:
        env = os.environ.get("ULTRAFREE_BUDGET_MS")
        if env is not None:
            try:
                millis = int(env)
            except ValueError:
                raise ValueError(f"ULTRAFREE_BUDGET_MS must be an integer, got {env!r}") from None
    if args.budget_nodes is None and millis is None:
        return None
    return SearchBudget(max_nodes=args.budget_nodes, max_millis=millis)


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

    p = sub.add_parser("gen", parents=[common], allow_abbrev=False, help="emit a constructed graph")
    p.add_argument("family")
    p.add_argument("--params", default="", metavar="k=v,...")
    p.add_argument("--format", choices=("json", "dimacs"), default="json")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", parents=[common], allow_abbrev=False, help="graph metrics")
    p.add_argument("file")
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("setsys", parents=[common], allow_abbrev=False, help="set-system metrics")
    p.add_argument("file")
    p.add_argument(
        "--derive",
        choices=("stars", "mis", "neighborhoods", "dual", "none"),
        default=None,
    )
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=_cmd_setsys)

    p = sub.add_parser("space", parents=[common], allow_abbrev=False, help="convexity-space metrics")
    p.add_argument("file")
    p.add_argument("--radon-cap", type=int, default=None, metavar="K")
    p.add_argument("--weak-net", default=None, metavar="EPS")
    p.add_argument("--measure", default="uniform", metavar="uniform|FILE")
    p.add_argument("--helly", action="store_true")
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("decompose", parents=[common], allow_abbrev=False, help="blow-up decomposition")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--eps", default=None, metavar="P/Q")
    p.add_argument("--method", choices=("haussler", "twin"), default="haussler")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", parents=[common], allow_abbrev=False, help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--catalog", choices=("small", "extended"), default="small")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)
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
        budget = _budget_from(args)
        code = args.func(args, budget)
        sys.stdout.flush()
        return code
    except BudgetExceeded as e:
        return _emit_error(args, "budget", str(e), 3)
    except ParseError as e:
        return _emit_error(args, "parse-error", str(e), 2)
    except PreconditionViolated as e:
        return _emit_error(args, "precondition", str(e), 2)
    except (ClaimViolation, InternalContradiction) as e:
        return _emit_error(
            args, "claim-violation", str(e), 1, witness=getattr(e, "witness", None)
        )
    except ValueError as e:
        return _emit_error(args, "usage", str(e), 2)
    except OSError as e:
        if isinstance(e, BrokenPipeError):
            # the reader closed stdout: point it at devnull so that neither
            # the error below nor the flush at exit writes to the pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _emit_error(args, "io", str(e), 2)


if __name__ == "__main__":
    sys.exit(main())
