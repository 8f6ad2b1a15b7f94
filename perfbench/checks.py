"""Correctness checks on what one `segreform` invocation produced."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import jsonschema

# Rows judged in units of Monte Carlo standard error.  One of them failing
# can be a statistical false alarm; any other failing row, and any failure
# of an invocation as a whole, marks the run's output as wrong.
MC_ROW = re.compile(r"pushforward_mc_k\d+_stderr_units|moment_mc_\w+|mc_gap_stderr_units")

# rows holding exact-path residuals, for report.max_exact_residual
EXACT_RESIDUAL_ROW = re.compile(r"pushforward_vs_segre_k\d+|identity9_residual_max_k\d+")


@dataclass
class Outcome:
    """Verdict on one invocation.

    `wrong` says why the output itself is wrong (a crash, an invalid report,
    an exit code that disagrees with the rows, or a failed row that is not
    a Monte Carlo stderr-unit row); `failed_rows` names every row with
    `pass: false`.  An invocation fails if either is set.
    """

    wrong: str | None = None
    failed_rows: list = field(default_factory=list)
    exact_residuals: list = field(default_factory=list)

    @property
    def failed(self):
        return self.wrong is not None or bool(self.failed_rows)


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def check_gen(argv, exit_code, read_file):
    if exit_code != 0:
        return Outcome(wrong=f"exit code {exit_code}")
    try:
        tensor = json.loads(read_file(_option(argv, "--out")))
    except (OSError, ValueError) as exc:
        return Outcome(wrong=f"unreadable instance: {exc}")
    if [tensor.get("n"), tensor.get("r")] != [int(argv[1]), int(argv[2])]:
        return Outcome(wrong=f"instance has n={tensor.get('n')} r={tensor.get('r')}")
    return Outcome()


def check_report(exit_code, stdout, schema):
    if exit_code not in (0, 1):
        return Outcome(wrong=f"exit code {exit_code}: {stdout.strip()[:200]}")
    try:
        report = json.loads(stdout)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return Outcome(wrong=f"invalid report: {str(exc)[:200]}")
    rows = report["results"]
    out = Outcome(failed_rows=[row["name"] for row in rows if not row["pass"]])
    out.exact_residuals = [float(row["value"]) for row in rows
                           if EXACT_RESIDUAL_ROW.fullmatch(row["name"])]
    if (exit_code == 1) != bool(out.failed_rows):
        out.wrong = f"exit code {exit_code} disagrees with {len(out.failed_rows)} failed rows"
    elif any(not MC_ROW.fullmatch(name) for name in out.failed_rows):
        out.wrong = "deterministic row failed: " + ", ".join(out.failed_rows)
    return out


def check_invocation(argv, exit_code, stdout, schema, read_file):
    if argv[0] == "gen":
        return check_gen(argv, exit_code, read_file)
    return check_report(exit_code, stdout, schema)
