"""Smoke tests for the scripts under scripts/, run in-process."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbit_summary_default_triple(capsys):
    assert load_script("orbit_summary").main([]) == 0
    out = capsys.readouterr().out
    point_lines = re.findall(r"^\s*\d+  jac rank 3  hess rank 4  perm ", out, re.MULTILINE)
    assert len(point_lines) == 64
    assert "all ordinary double points: True" in out


def test_orbit_summary_screened_triple(capsys):
    assert load_script("orbit_summary").main(["--y", "1,0,3"]) == 2
    out = capsys.readouterr().out
    assert "fails the genericity screen: coordinate vanishes" in out


def test_show_negative_controls(capsys):
    assert load_script("show_negative_controls").main() == 0
    out = capsys.readouterr().out
    assert "witness monomial: x1*x7" in out
    assert "verdict: fixed-point-found" in out
