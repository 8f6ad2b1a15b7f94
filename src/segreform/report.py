"""Machine-readable verification reports and canonical JSON output.

Reports list one entry per checked quantity, each with an explicit tolerance
and pass flag, so downstream tooling never has to re-derive the verdict.  One
rule, in Report.add only, decides every flag: a row passes when its measured
number (its value, or the number the caller reads off a dict value) is at most
its tolerance; Monte Carlo rows measure stderr_units against MC_UNITS.
Serialisation is canonical: sorted keys and 17-significant-digit floats,
which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__

MC_UNITS = 4.0  # the tolerance of every Monte Carlo row, in standard errors


def stderr_units(estimate, exact, stderr):
    """Largest |estimate - exact| / (|stderr| + 1e-12) over the entries, in standard errors."""
    return float(np.max(np.abs(np.subtract(estimate, exact)) / (np.abs(stderr) + 1e-12)))


class Report:
    """One command's report: its name, its inputs and one result row per check."""

    def __init__(self, command):
        self.command, self.inputs, self.results = command, {}, []

    def add(self, name, value, tolerance, measured=None):
        """Append a row passing iff measured (by default value) <= tolerance; return that."""
        if measured is None and isinstance(value, dict):
            raise TypeError(f"row {name}: a dict value needs its measured number")
        passed = bool((value if measured is None else measured) <= tolerance)
        self.results.append({"name": name, "value": value,
                             "tolerance": float(tolerance), "pass": passed})
        return passed

    @property
    def all_passed(self):
        return all(row["pass"] for row in self.results)

    def dumps(self):
        return canonical_json({"command": self.command, "inputs": self.inputs,
                               "results": self.results, "version": __version__})


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
    else:
        out.append(json.dumps(str(obj)))


def canonical_json(obj):
    """Deterministic JSON: sorted keys, 17-digit floats; nan and inf raise NonFiniteError."""
    out = []
    _render(obj, out)
    return "".join(out)
