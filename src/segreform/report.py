"""Machine-readable verification reports and canonical JSON output.

Reports list one entry per checked quantity, each with an explicit tolerance
and pass flag, so downstream tooling never has to re-derive the verdict.
Serialisation is canonical: sorted keys and 17-significant-digit floats,
which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math

from . import __version__


class Report:
    """One command's report: its name, its inputs and one result row per check."""

    def __init__(self, command, inputs):
        self.command = command
        self.inputs = inputs
        self.results = []

    def add(self, name, value, tolerance, passed):
        self.results.append({"name": name, "value": value,
                             "tolerance": float(tolerance), "pass": bool(passed)})

    @property
    def all_passed(self):
        return all(row["pass"] for row in self.results)

    def to_dict(self):
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results, "version": __version__}

    def dumps(self):
        return canonical_json(self.to_dict())


class NonFiniteError(ValueError):
    """A report value is nan or inf, which has no JSON form."""


def _render(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteError(f"{obj!r} has no JSON form: a report holds finite numbers only")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif hasattr(obj, "item") and callable(obj.item):
        _render(obj.item(), out)  # numpy scalar
    else:
        out.append(json.dumps(str(obj)))


def canonical_json(obj):
    """Deterministic JSON: sorted keys, 17-digit floats; nan and inf raise NonFiniteError."""
    out = []
    _render(obj, out)
    return "".join(out)
