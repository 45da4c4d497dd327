"""Smoke runs of the shipped demos, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


# 02 reads OptimisticLearner.bettor, 03 the constrained learner's last_z and
# last_tilde_iterate, 05 calls coverage_experiment
@pytest.mark.parametrize("name", ["01_add_iterates.py", "02_optimistic_hints.py",
                                  "03_constrained_domain.py", "05_bernstein_coverage.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_multi_norm_demo_keeps_its_guarantee():
    # d=64 gives a grid up to q ~ 52 over T=8192 rounds of a 1-sparse stream
    proc = run_demo("04_multi_norm_adaptivity.py")
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if "guarantee:" in ln]
    assert len(lines) == 1, proc.stdout
    assert lines[0].rstrip().endswith("True"), lines[0]
