"""No public function or method in src/quadcert that only the tests call.

Every module function and class method whose name has no leading underscore
must be referenced outside its own def, in src/, bench/*.py or scripts/*.py.
A module function counts wherever its name appears.  A class method or
property counts only where it is read as an attribute (`x.name`), or named in
an identifier string in bench/*.py (the tracer's hook tables name what they
wrap as "module", "function" or "Class.method"): a local variable that
shares its name, such as `coeffs`, does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

#: Public names that only the tests read, each with the reason it stays.
ALLOWED = {
    "GroebnerBasis.contains": "reads out buchberger, the tests' reference engine, "
    "which stays while bench/tracer.py hooks it",
    "GroebnerBasis.is_trivial": "reads out buchberger, the tests' reference engine, "
    "which stays while bench/tracer.py hooks it",
    "CyclotomicNumber.coeffs": "acceptance criterion 9 reads it, in its span-membership "
    "reference, and tests/test_acceptance.py stays as it is",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(qualified name, file, def node) of every public module function and
    class method in src/quadcert."""
    for path in sorted((ROOT / "src" / "quadcert").glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, path, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", path, item


def references():
    """Identifier -> the (file, line, kind) places that name it outside
    tests/; kind is "name", "attribute" or "hook" (a bench/*.py string)."""
    places: dict[str, list] = {}
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
    ]
    for path in paths:
        hooks = path.parent.name == "bench"
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names, kind = [node.id], "name"
            elif isinstance(node, ast.Attribute):
                names, kind = [node.attr], "attribute"
            elif hooks and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".") if IDENTIFIER.fullmatch(node.value) else []
                kind = "hook"
            else:
                continue
            for name in names:
                places.setdefault(name, []).append((path, node.lineno, kind))
    return places


def test_every_public_name_is_used_outside_the_tests():
    places = references()
    unused = set()
    for qualified, path, node in public_definitions():
        method = "." in qualified
        outside = [
            (where, line)
            for where, line, kind in places.get(node.name, [])
            if not (method and kind == "name")
            and (where != path or not node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.add(qualified)
    assert unused == set(ALLOWED)
