"""Every name of the library is used: each public top-level function or
class of src/atomlen, and each public method or property of such a class,
appears as a whole word in src/, scripts/, tests/ or README.md somewhere
other than its own def or class line; each private top-level def, class or
assignment appears in src/ somewhere other than its own line."""
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


def _private_names(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [getattr(node.target, "id", "")]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, name


def test_every_private_name_is_referenced_in_src():
    paths = sorted(ROOT.glob("src/atomlen/*.py"))
    lines = {path: path.read_text().splitlines() for path in paths}
    words = collections.Counter(re.findall(r"\w+", "\n".join(
        line for body in lines.values() for line in body)))
    dead = []
    for path in paths:
        for lineno, name in _private_names(ast.parse(path.read_text())):
            own = re.findall(r"\w+", lines[path][lineno - 1])
            if words[name] <= own.count(name):
                dead.append(f"{path.name}:{lineno} {name}")
    assert not dead, f"private names referenced nowhere in src/: {dead}"
