"""Structured pass/fail reports with byte-stable JSON serialization.

A report is a list of named checks.  Identical inputs must serialize to
identical bytes, so no timestamps or timing appear in the JSON (the
``timing`` key is always null) and rationals are rendered as "P/Q"
strings.
"""

from __future__ import annotations

import json
import sys

TOOL_VERSION = "0.1.0"

__all__ = ["Check", "Report", "TOOL_VERSION"]


def _is_fraction(value) -> bool:
    # no value is a Fraction before the fractions module loads, and a
    # command that makes no rational never loads it
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _fraction_text(value) -> str:
    """A rational as its 'P/Q' string; the ``default`` hook of json.dumps."""
    if _is_fraction(value):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def jsonable(value):
    """Rationals as 'P/Q' strings; containers recursively; rest as is."""
    if _is_fraction(value):
        return _fraction_text(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class Check:
    """One verdict: ``rule`` names the claim, ``name`` the instance."""

    __slots__ = ("name", "rule", "status", "value", "witness")

    def __init__(self, name: str, rule: str, status: str, value=None, witness=None):
        if status not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad status {status!r}")
        if status == "fail" and witness is None:
            raise ValueError("failing checks must carry a witness")
        self.name = name
        self.rule = rule
        self.status = status
        self.value = value
        self.witness = witness

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rule": self.rule,
            "status": self.status,
            "value": jsonable(self.value),
            "witness": jsonable(self.witness),
        }


class Report:
    __slots__ = ("input_digest", "checks")

    def __init__(self, input_digest: str, checks):
        self.input_digest = input_digest
        self.checks = tuple(sorted(checks, key=lambda c: c.name))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "tool_version": TOOL_VERSION,
            "input_digest": self.input_digest,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "timing": None,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            extra = "" if c.value is None else f" value={jsonable(c.value)}"
            if c.status == "fail":
                extra += f" witness={jsonable(c.witness)}"
            out.append(f"[{mark}] {c.name}{extra}")
        return out


def _verdict(name: str, rule: str, ok, value=None, witness=None) -> Check:
    """The check whose status follows ``ok``: None skips, truthy passes,
    falsy fails.  Only a failure keeps its witness; when none is given it
    is the value, or ``{}`` when that is None too."""
    if ok is None:
        return Check(name, rule, "skipped", value=value)
    if ok:
        return Check(name, rule, "pass", value=value)
    if witness is None:
        witness = {} if value is None else value
    return Check(name, rule, "fail", value=value, witness=witness)


def digest_of(*parts) -> str:
    """Short deterministic digest of the canonical form of the inputs.
    Every dict key in them must be a ``str``."""
    # here, not at the top: most commands take no digest.  The builtin
    # SHA-256 (``_sha256`` up to 3.11, ``_sha2`` from 3.12) loads no OpenSSL
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256

    h = sha256()
    for p in parts:
        h.update(json.dumps(p, sort_keys=True, default=_fraction_text).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]

