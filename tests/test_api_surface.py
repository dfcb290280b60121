"""No public function, method or named-tuple field in src/quadcert that
only the tests read.

Every module function and class method whose name has no leading underscore
must be referenced outside its own def, in src/, bench/*.py or scripts/*.py.
A module function counts wherever its name appears.  A class method or
property counts only where it is read as an attribute (`x.name`), or named in
an identifier string in bench/*.py (the tracer's hook tables name what they
wrap as "module", "function" or "Class.method"): a local variable that
shares its name, such as `coeffs`, does not count.  A field of a NamedTuple
class counts only where it is read as an attribute: a keyword argument that
fills it, or tuple unpacking, does not.
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
    "InvolutionCertificate.involution_count": "acceptance criterion 4 reads it",
    "InvolutionCertificate.all_in_subgroup": "acceptance criterion 4 reads it",
    "InvolutionCertificate.subgroup_contained_in_ambient": "acceptance criterion 4 reads it",
    "ODPCertificate.null_combination": "the tests re-verify each certificate with it",
    "FreenessReport.group_name": "bench/sweep.py passes group_name=, and only a benchmark "
    "change may edit bench/",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def public_definitions():
    """(qualified name, kind, file, node) of every public module function
    ("function"), class method ("method") and named-tuple field ("field")
    in src/quadcert."""
    for path in sorted((ROOT / "src" / "quadcert").glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, "function", path, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name, kind = item.name, "method"
                    elif (
                        is_named_tuple(node)
                        and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                    ):
                        name, kind = item.target.id, "field"
                    else:
                        continue
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", kind, path, item


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


#: The kinds of reference that count as a use of each kind of definition.
COUNTS = {
    "function": {"name", "attribute", "hook"},
    "method": {"attribute", "hook"},
    "field": {"attribute"},
}


def test_every_public_name_is_used_outside_the_tests():
    places = references()
    unused = set()
    for qualified, kind, path, node in public_definitions():
        name = qualified.rpartition(".")[2]
        outside = [
            (where, line)
            for where, line, ref in places.get(name, [])
            if ref in COUNTS[kind]
            and (where != path or not node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.add(qualified)
    assert unused == set(ALLOWED)
