"""Every public name of the library is used: each public top-level function
or class of src/atomlen, and each public method or property of such a class,
appears as a whole word in src/, scripts/, tests/ or README.md somewhere
other than its own def or class line."""
import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py"),
                 *ROOT.glob("tests/**/*.py"), ROOT / "README.md"])
DEFS = (ast.FunctionDef, ast.ClassDef)


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, DEFS)
                            and not m.name.startswith("_"))


def test_every_public_name_is_referenced():
    lines = {path: path.read_text().splitlines() for path in CORPUS}
    words = collections.Counter(re.findall(r"\w+", "\n".join(
        line for body in lines.values() for line in body)))
    unused = []
    for path in sorted(ROOT.glob("src/atomlen/*.py")):
        for node in _public_definitions(ast.parse(path.read_text())):
            own = re.findall(r"\w+", lines[path][node.lineno - 1])
            if words[node.name] <= own.count(node.name):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"public names referenced nowhere: {unused}"
