"""The benchmark's tracer (bench/tracer.py) wraps quadcert functions by name.
Every name it lists must resolve, or a traced benchmark run fails.  The
tracer is parsed, not imported, so this test does not install its hooks."""

import ast
import importlib
from pathlib import Path

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
