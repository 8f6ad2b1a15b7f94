"""Machine-readable verification reports and canonical JSON output.

Reports list one entry per checked quantity, each with an explicit tolerance
and pass flag, so downstream tooling never has to re-derive the verdict.
Serialisation is canonical: sorted keys and 17-significant-digit floats,
which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__


@dataclass
class ResultItem:
    name: str
    value: object
    tolerance: float
    passed: bool

    def to_dict(self):
        return {"name": self.name, "value": self.value,
                "tolerance": float(self.tolerance), "pass": bool(self.passed)}


@dataclass
class Report:
    command: str
    inputs: dict
    results: list = field(default_factory=list)

    def add(self, name, value, tolerance, passed):
        self.results.append(ResultItem(name, value, tolerance, passed))

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_dict(self):
        return {"command": self.command, "inputs": self.inputs,
                "results": [r.to_dict() for r in self.results],
                "version": __version__}

    def dumps(self):
        return canonical_json(self.to_dict())


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
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out = []
    _render(obj, out)
    return "".join(out)
