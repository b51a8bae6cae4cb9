"""Workload definitions: the commands of one pass, generated from a seed.

A pass is the list of ``ultrafree`` commands a workload runs once.  Input
files are written under the work directory, named by the hash of their
content, so a command's argv identifies its inputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

CLI_DEFAULT_SEED = 20260301


@dataclass
class Command:
    argv: list[str]
    kind: str  # verify, analyze, setsys, space, decompose
    # graph the command reads, for checks that need it
    graph: dict | None = None
    metrics: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _random_graph(rng: random.Random, n: int) -> dict:
    # G(n, 1/2)
    edges = [[u, v] for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    return {"n": n, "edges": edges}


def _multipartite(sizes: list[int]) -> dict:
    """Complete multipartite graph; with equal-as-possible sizes, a Turan graph."""
    part = []
    for i, s in enumerate(sizes):
        part += [i] * s
    n = len(part)
    edges = [[u, v] for u, v in combinations(range(n), 2) if part[u] != part[v]]
    return {"n": n, "edges": edges}


def _turan(n: int, k: int) -> dict:
    return _multipartite([n // k + (1 if i < n % k else 0) for i in range(k)])


def _c5_blowup(sizes: list[int]) -> dict:
    """C5 with vertex i replaced by sizes[i] independent copies."""
    origin = [i for i, s in enumerate(sizes) for _ in range(s)]
    edges = [
        [u, v]
        for u, v in combinations(range(len(origin)), 2)
        if (origin[u] - origin[v]) % 5 in (1, 4)
    ]
    return {"n": len(origin), "edges": edges}


def _write(work: Path, root: Path, obj: dict) -> str:
    text = json.dumps(obj, separators=(",", ":")) + "\n"
    path = work / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    return path.relative_to(root).as_posix()


def verify_correspondence(seed: int, work: Path, root: Path) -> list[Command]:
    argv = ["verify", "--suite", "correspondence", "--catalog", "extended", "--seed", str(seed), "--json"]
    return [Command(argv, "verify")]


def verify_construction(seed: int, work: Path, root: Path) -> list[Command]:
    return [Command(["verify", "--suite", "construction:d=5", "--json"], "verify")]


def cli_session(seed: int, work: Path, root: Path) -> list[Command]:
    """Forty-six short commands, the interactive use of the CLI."""
    rng = random.Random(seed)
    cmds: list[Command] = []

    def analyze(g: dict, metrics: list[str]) -> None:
        path = _write(work, root, g)
        argv = ["analyze", path, "--metrics", ",".join(metrics), "--json"]
        cmds.append(Command(argv, "analyze", g, metrics))

    # Sizes are fixed and only the edges come from the seed, so that the
    # cost of a pass varies little between seeds.  The cost of these
    # metrics is heavy-tailed in the edges, more so as n grows: at n = 40,
    # 1 graph in 12 takes over 1 s, so n stays at 34-36.
    for n in (34, 34, 35, 35, 35, 36, 36, 36):
        analyze(_random_graph(rng, n), ["chi", "omega", "mis", "codensity:2:3"])
    # nu_bi's cost varies little between graphs of one size, most of all
    # at n = 28, and grows about 1.9 times per 2 vertices.  With eight at
    # n = 28 the per-pass tail (the 11th slowest command) falls among them.
    for n in (28, 28, 28, 28, 28, 28, 28, 28, 30, 31, 32, 32):
        analyze(_random_graph(rng, n), ["nubi"])
    for n, r in ((30, 3), (40, 3), (30, 4), (40, 4), (30, 5), (40, 5)):
        analyze(_turan(n + rng.randint(-3, 0), r - 1), [f"ultra:{r}"])
    # graph / set-system dictionary: tau(stars) = chi and nu(stars) = omega
    for n in (12, 13, 14, 15, 16):
        g = _random_graph(rng, n)
        path = _write(work, root, g)
        cmds.append(Command(["setsys", path, "--derive", "stars", "--metrics", "tau,nu", "--json"],
                            "setsys", g, ["tau", "nu"]))
        analyze(g, ["chi", "omega"])
    for n in (8, 9, 10, 10):
        g = _random_graph(rng, n)
        path = _write(work, root, {"kind": "from_graph", "graph": g})
        argv = ["space", path, "--helly", "--radon-cap", "3", "--weak-net", "1/4", "--json"]
        cmds.append(Command(argv, "space", g))
    for method in ("twin", "haussler"):
        for _ in range(2):
            g = _c5_blowup([rng.randint(3, 8) for _ in range(5)])
            path = _write(work, root, g)
            argv = ["decompose", path, "--method", method, "--json"]
            if method == "haussler":
                argv[-1:-1] = ["--r", "3", "--eps", "1/28"]
            cmds.append(Command(argv, "decompose", g))
    cmds.append(Command(["verify", "--suite", "mindeg-ultra", "--json"], "verify"))
    cmds.append(Command(["verify", "--suite", "halfgraph", "--json"], "verify"))
    return cmds


WORKLOADS = {
    "verify-correspondence": verify_correspondence,
    "verify-construction": verify_construction,
    "cli-session": cli_session,
}


def build(name: str, seed: int, work: Path, root: Path) -> list[Command]:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work, root)
