"""The benchmark calls into quadcert by name.  Its tracer (bench/tracer.py)
wraps quadcert functions by name: every name it lists must resolve, or a
traced benchmark run fails.  The tracer is parsed, not imported, so these
tests do not install its hooks.  The sweep workload (bench/sweep.py) calls
the public checks in-process and reads their report trees."""

import ast
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
HOOK_LISTS = ("TIMED", "COUNTED", "LEVELED")


def hook_entries():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in HOOK_LISTS
    }
    assert sorted(lists) == sorted(HOOK_LISTS)
    return [entry for name in HOOK_LISTS for entry in lists[name]]


def test_tracer_hook_names_resolve():
    entries = hook_entries()
    assert entries
    unresolved = []
    for module, attr, _ in entries:
        owner = importlib.import_module(f"quadcert.{module}")
        if "." in attr:
            # class attributes are looked up in the class __dict__, as the
            # tracer's install step does, so an inherited name does not count
            cls_name, name = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(name))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            unresolved.append(f"{module}.{attr}")
    assert not unresolved, f"bench/tracer.py names missing from quadcert: {unresolved}"


#: The sweep output at each seed, which every speedup must leave byte-identical.
SWEEP_DIGESTS = {
    0: "8398272165647cd57dc851cf1799602d09743579c6959b48c020638da6c8299e",
    1: "cb9f39addf80e575cad075ee57c7b4db07bed09bac14bba850d810a42061b195",
}


@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_sweep_runs_in_process(monkeypatch, seed):
    # bench/sweep.py calls quadcert in-process: standard_group, MonomialMatrix,
    # check_ideal_invariance, planted_control_system and check_freeness, and
    # reads the freeness report tree; run it unchanged
    bench = TRACER.parent
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_sweep", bench / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    ops = sweep.run(seed)
    assert [op["error"] for op in ops if op["error"]] == []
    digest = hashlib.sha256(json.dumps({"seed": seed, "ops": ops}, sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_DIGESTS[seed]
    planted = [op for op in ops if op["kind"] == "planted"]
    assert [op["verdict"] for op in planted] == ["fixed-point-found"] * 3
    (stock,) = [op for op in ops if op["kind"] == "stock"]
    assert stock["witness"] == "x1*x7"
