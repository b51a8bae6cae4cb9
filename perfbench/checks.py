"""Output checks for the benchmark's commands.

Every command must exit 0 and its ``--json`` stdout must have the shape
its command promises.  Where a digest was recorded for the exact argv
(input files are content-named, so argv identifies the inputs), the stdout
must match it byte for byte.  Within a pass, each ``setsys --derive stars``
graph is also analyzed, and tau = chi and nu = omega must hold: the
paper's graph / set-system dictionary.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _shape(cmd, obj) -> str | None:
    """Why the parsed output is wrong for this command, or None."""
    if not isinstance(obj, dict):
        return "output is not a JSON object"
    if "error" in obj:
        return f"error {obj['error']}"
    if cmd.kind == "verify":
        fails = [c["name"] for c in obj.get("checks", []) if c.get("status") == "fail"]
        if obj.get("passed") is not True or fails or not obj.get("checks"):
            return f"suite did not pass: failing checks {fails}"
    elif cmd.kind in ("analyze", "setsys"):
        if sorted(obj) != sorted(cmd.metrics):
            return f"metrics {sorted(obj)} != requested {sorted(cmd.metrics)}"
        if "chi" in obj and not (isinstance(obj["chi"], int) and obj["chi"] >= obj["omega"] >= 1):
            return "chi >= omega >= 1 fails"
    elif cmd.kind == "space":
        if obj.get("points", 0) < 1 or not isinstance(obj.get("helly"), int) or "weak_net" not in obj:
            return "space output lacks points, helly or weak_net"
    elif cmd.kind == "decompose":
        n = cmd.graph["n"]
        parts = obj.get("parts", [])
        if sorted(v for p in parts for v in p) != list(range(n)):
            return "parts do not partition the vertices"
        if len(obj.get("origin", [])) != n or obj.get("quotient", {}).get("n") != len(parts):
            return "origin or quotient does not match the parts"
    return None


def check_command(cmd, code, stdout: bytes, digests: dict[str, str]) -> tuple[str | None, object]:
    """(problem or None, parsed output) for one command's result."""
    if code != 0:
        return f"exit code {code}", None
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON", None
    problem = _shape(cmd, obj)
    if problem is None:
        want = digests.get(cmd.key)
        if want is not None and want != digest(stdout):
            problem = "stdout differs from the recorded digest"
    return problem, obj


def check_dictionary(cmds, outputs) -> list[int]:
    """Indices of setsys commands whose tau/nu disagree with chi/omega of the
    same graph analyzed in the same pass."""
    by_graph = {}
    for cmd, obj in zip(cmds, outputs):
        if cmd.kind == "analyze" and obj is not None and "chi" in obj:
            by_graph[json.dumps(cmd.graph)] = obj
    bad = []
    for i, (cmd, obj) in enumerate(zip(cmds, outputs)):
        if cmd.kind != "setsys" or obj is None:
            continue
        ref = by_graph.get(json.dumps(cmd.graph))
        if ref is None or (obj["tau"], obj["nu"]) != (ref["chi"], ref["omega"]):
            bad.append(i)
    return bad
