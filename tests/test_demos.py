"""Smoke tests of the demo scripts, each run as its own process.

`demos/gain_curve.py` is left out: it sweeps for about a minute.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of the stdout of each demo whose seeded output is pinned
PINNED = {"buffer_split.py":
          "9d00adf725fe68c8d4bcfb4def05d89e1daf676e0649b75b6e52b4d35784139a",
          "model_vs_oracle.py":
          "79396dc55c0efc7e4fe97f3ac0ebde03debc9f0941802e01186340e6fe1800f4",
          "police_a_flow.py":
          "d2f8139729d0361ee7be4aa36a52d6aa51168a58621dc9a89c24deca03892014"}


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_police_a_flow_catches_the_understated_weight():
    out = run_demo("police_a_flow.py")
    lines = out.splitlines()
    assert "declared N=4: compliant" in lines
    assert "declared N=2: violation" in lines
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED["police_a_flow.py"]


@pytest.mark.parametrize("name", ["buffer_split.py", "model_vs_oracle.py"])
def test_demo_runs(name):
    out = run_demo(name)
    assert out
    if name in PINNED:
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[name]
