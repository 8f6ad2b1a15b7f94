"""Report bytes pinned: the benchmark's three workload pipelines, run in child
processes at instance seed 11 and MC seed 1011, against a committed table.

Each row is one invocation: its argv, exit code, stdout, and the sha256 of
every file it wrote with --out.  The table records the numpy version it was
made with; floating-point results may legitimately move under another numpy,
so there the test skips.  To re-record after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env

TABLE = Path(__file__).parent / "golden" / "workloads.json"
SEED, MC_SEED = "11", "1011"

# the argv lists of perfbench/workloads.py at these seeds, file names relative to the run directory
MC = ["--seed", MC_SEED]
WORKLOADS = {
    "exact-algebra": [
        ["gen", "4", "4", SEED, "--he", "1.0", "--out", "he44.json"],
        ["verify", "pushforward", "--in", "he44.json"],
        ["verify", "identity9", "--in", "he44.json", "--k", "2", "--samples", "3", *MC],
        ["check", "thm12", "--in", "he44.json"],
        ["check", "kl", "--in", "he44.json"],
    ],
    "fiber-mc": [
        ["gen", "3", "3", SEED, "--he", "1.0", "--out", "he33.json"],
        ["verify", "pushforward", "--in", "he33.json", "--k", "2", "--samples", "4000", *MC],
        ["verify", "identity8", "--in", "he33.json", "--samples", "20", *MC],
        ["verify", "moments", "--r", "3", "--k", "3", "--samples", "1000000", *MC],
        ["gen", "3", "3", SEED, "--flat", "--he", "1.0", "--out", "flat33.json"],
        ["check", "lhe", "--in", "flat33.json", "--ell", "3", "--samples", "2000", *MC],
        ["check", "remark41", "--in", "flat33.json"],
    ],
    "cli-small": [
        ["gen", "2", "2", SEED, "--out", "rand22.json"],
        ["gen", "2", "2", SEED, "--he", "1.0", "--out", "he22.json"],
        ["gen", "2", "2", SEED, "--flat", "--he", "1.0", "--out", "flat22.json"],
        ["gen", "2", "2", SEED, "--strong-flat", "--he", "1.0", "--out", "strong22.json"],
        ["check", "he", "--in", "he22.json"],
        ["check", "kl", "--in", "he22.json"],
        ["check", "surface", "--in", "strong22.json"],
        ["check", "remark41", "--in", "flat22.json"],
        ["moments", "--r", "2", "--lambdas", "1", "2", "--mus", "2", "1",
         "--samples", "20000", *MC],
        ["verify", "pushforward", "--in", "rand22.json"],
        ["verify", "identity9", "--in", "rand22.json", "--samples", "3", *MC],
    ],
}


def run_workloads():
    """One table row per invocation, each workload in a fresh working directory."""
    rows = []
    for workload, invocations in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as cwd:
            for argv in invocations:
                proc = subprocess.run([sys.executable, "-m", "segreform.cli", *argv], cwd=cwd,
                                      capture_output=True, text=True, env=child_env())
                outs = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--out"]
                rows.append({"workload": workload, "argv": argv, "exit": proc.returncode,
                             "stdout": proc.stdout,
                             "files": {name: hashlib.sha256(Path(cwd, name).read_bytes()).hexdigest()
                                       for name in outs}})
    return rows


def test_workload_reports_match_the_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["numpy"] != np.__version__:
        pytest.skip(f"table made with numpy {table['numpy']}, running numpy {np.__version__}")
    rows = run_workloads()
    assert [row["argv"] for row in rows] == [row["argv"] for row in table["rows"]]
    differing = [f"{want['workload']} {' '.join(want['argv'])}\n  want {want}\n  got  {got}"
                 for want, got in zip(table["rows"], rows) if want != got]
    assert not differing, "rows differ from the table:\n" + "\n".join(differing)


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(row) for row in run_workloads())  # one line per row
    TABLE.write_text(f'{{"numpy": "{np.__version__}", "rows": [\n{rows}\n]}}\n', encoding="utf-8")
