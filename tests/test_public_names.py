"""Every name of the library is used: each public top-level function or
class of src/atomlen, and each public method or property of such a class,
appears as a whole word in src/, scripts/, tests/ or README.md somewhere
other than its own def or class line; each private top-level def, class or
assignment is read by code in src/ (a Name or attribute node in load
context, not a docstring or comment) somewhere other than its own line; no
file of src/atomlen or scripts/ reads another atomlen module's private name;
and no decision in src/atomlen reads a form's display label."""
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


def _code_references(tree):
    """(line, name) of each name the code reads: Name nodes and attribute
    names in load context, so a docstring or comment mention is none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.lineno, node.attr


def test_every_private_name_is_referenced_in_src():
    paths = sorted(ROOT.glob("src/atomlen/*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    refs = {(path, line, name) for path, tree in trees.items()
            for line, name in _code_references(tree)}
    used = collections.Counter(name for _, _, name in refs)
    dead = []
    for path, tree in trees.items():
        for lineno, name in _private_names(tree):
            if used[name] <= ((path, lineno, name) in refs):
                dead.append(f"{path.name}:{lineno} {name}")
    assert not dead, f"private names referenced nowhere in src/: {dead}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_file_reads_another_modules_private_names():
    """Files under src/atomlen and scripts read only the public names of the
    other atomlen modules; tests may still reach (and monkeypatch) private
    ones."""
    misuse = []
    for path in sorted([*ROOT.glob("src/atomlen/*.py"),
                        *ROOT.glob("scripts/*.py")]):
        own = path.stem if path.parent.name == "atomlen" else None
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> atomlen module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:  # relative imports occur only in src/atomlen
                    source = f"atomlen.{source}".rstrip(".")
                if source == "atomlen":
                    modules.update((a.asname or a.name, a.name)
                                   for a in node.names)
                elif source.startswith("atomlen."):
                    misuse += [f"{path.name}:{node.lineno} {source}.{a.name}"
                               for a in node.names if _private(a.name)
                               and source != f"atomlen.{own}"]
            elif isinstance(node, ast.Import):
                modules.update((a.asname, a.name.split(".", 1)[1])
                               for a in node.names if a.asname
                               and a.name.startswith("atomlen."))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and modules.get(node.value.id, own) != own):
                misuse.append(f"{path.name}:{node.lineno} "
                              f"{modules[node.value.id]}.{node.attr}")
    assert not misuse, f"private names read across modules: {misuse}"


def _decisions(tree):
    """The expressions whose value picks a branch or a table entry:
    comparisons, boolean operators, subscript keys and the tests of if,
    while, assert, conditional expressions and match statements."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            yield node
        elif isinstance(node, ast.Subscript):
            yield node.slice
        elif isinstance(node, (ast.If, ast.While, ast.Assert, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.Match):
            yield node.subject


def test_no_decision_reads_a_form_label():
    """form_id only names a form in reports and messages; what a form is
    (and so which certificates it takes) is read off its data."""
    reads = set()
    for path in sorted(ROOT.glob("src/atomlen/*.py")):
        for expr in _decisions(ast.parse(path.read_text())):
            reads.update(f"{path.name}:{node.lineno}"
                         for node in ast.walk(expr)
                         if isinstance(node, ast.Attribute)
                         and node.attr == "form_id")
    assert not reads, f"decisions read form_id: {sorted(reads)}"
