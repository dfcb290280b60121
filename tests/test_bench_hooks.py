"""The benchmark calls into quadcert by name.  Its tracer (bench/tracer.py)
wraps quadcert functions by name: every name it lists must resolve, or a
traced benchmark run fails.  The tracer is parsed, not imported, so these
tests do not install its hooks.  The sweep workload (bench/sweep.py) calls
the public checks in-process and reads their report trees.  The benchmark
accepts a CLI round only if its report passes bench/checkers.py."""

import ast
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from quadcert.cli import main
from quadcert.groups import standard_generators

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
HOOK_LISTS = ("TIMED", "COUNTED", "LEVELED")


def literal_constants(path: Path, names) -> dict:
    """The named module-level literals of a script, parsed, not run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }
    assert sorted(found) == sorted(names)
    return found


def hook_entries():
    lists = literal_constants(TRACER, HOOK_LISTS)
    return [entry for name in HOOK_LISTS for entry in lists[name]]


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    monkeypatch.syspath_prepend(str(BENCH))
    ops = bench_module("sweep").run(seed)
    assert [op["error"] for op in ops if op["error"]] == []
    digest = hashlib.sha256(json.dumps({"seed": seed, "ops": ops}, sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_DIGESTS[seed]
    planted = [op for op in ops if op["kind"] == "planted"]
    assert [op["verdict"] for op in planted] == ["fixed-point-found"] * 3
    (stock,) = [op for op in ops if op["kind"] == "stock"]
    assert stock["witness"] == "x1*x7"


#: The CLI workloads of bench/run.py, less `--seed`, `--canonical` and `--json`.
CLI_WORKLOADS = {
    "campaign": ["all", "--group", "all", "--specializations", "3"],
    "crossval": ["freeness", "--group", "all", "--scope", "all", "--specializations", "3"],
}


@pytest.mark.parametrize("workload", sorted(CLI_WORKLOADS))
def test_canonical_report_passes_benchmark_checker(tmp_path, capsys, workload):
    # the benchmark's set-up code, then its round and the rule it accepts
    # the round's report by: a change to the report's shape fails here
    # before it fails every benchmark round
    exec(literal_constants(BENCH / "run.py", ["SETUP_CODE"])["SETUP_CODE"], {})
    out = tmp_path / "report.json"
    assert main([*CLI_WORKLOADS[workload], "--seed", "0", "--canonical", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    checkers = bench_module("checkers")
    if workload == "campaign":
        assert checkers.campaign_failures(report, 0, checkers.standard_groups()) == (0, [])
    else:
        assert checkers.crossval_failures(report, 0) == (0, [])


def readme_tables(title: str = "The pencil and the groups") -> list[list[list[str]]]:
    """The body rows of each table in a section of the README, each cell
    with its backticks kept."""
    text = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    tables = []
    for block in section.split("\n\n"):
        lines = block.strip().splitlines()
        if lines and all(line.startswith("|") for line in lines):
            rows = [line.strip("|").split("|") for line in lines[2:]]  # past the header
            tables.append([[cell.strip() for cell in row] for row in rows])
    return tables


def test_readme_generators_match_the_package_and_the_checkers():
    # bench/checkers.py rebuilds the groups from the README's generator
    # table: the table, the package and the checkers must agree entry for entry
    generator_rows, group_rows = readme_tables()
    readme = {
        name.strip("`"): (tuple(json.loads(perm.strip("`"))), tuple(json.loads(phases.strip("`"))))
        for name, perm, phases in generator_rows
    }
    groups = {
        label.strip("`"): tuple(n.strip(" `") for n in names.split(","))
        for label, names in group_rows
    }
    checkers = bench_module("checkers")
    assert readme == checkers.GENERATORS
    assert groups == checkers.GROUP_GENERATORS
    for label, names in groups.items():
        package_names, matrices = standard_generators(label)
        assert package_names == names
        assert [(g.perm, g.phases, g.N) for g in matrices] == [(*readme[n], 8) for n in names]
