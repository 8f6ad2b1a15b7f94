import subprocess
import sys
from pathlib import Path

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_runs():
    assert DEMOS
    env = child_env()
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
