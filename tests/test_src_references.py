"""src/ keeps only what runs: every public function, class and method of
orbitcal is referenced somewhere in src/orbitcal or perfbench, unless it
is listed below as kept for the tests.  A function or class counts as
referenced through a name, an attribute or an imported name; a method
only through an attribute, so that a free function of the same name
does not keep it.  An attribute on self or cls inside class C, or on
the name of a src class C, keeps only C's method of that name; on any
other receiver it keeps the method of that name of every class.  A
private module-level function, class or constant (one underscore, not
a dunder) must be named somewhere in src/orbitcal outside its own
definition.  A helper left behind by a refactor fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "orbitcal").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names that only the tests use, each as module.qualname
TEST_REFERENCES = {
    "decider.evaluation_system",
    "elim.parse_equation",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """module.qualname -> (name, the class of a method or None) of every
    public module-level function or class and every public method of
    such a class."""
    out = {}
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = (node.name, None)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            out[f"{path.stem}.{node.name}.{item.name}"] = (item.name, node.name)
    return out


CLASSES = {node.name for path in SRC for node in _tree(path).body if isinstance(node, ast.ClassDef)}


def _references(paths):
    """(every name referenced, the attributes referenced as (class,
    name) pairs).  The class is C for an attribute on self or cls inside
    class C or on the name of the src class C, and None, every class,
    for one on any other receiver."""
    names, attributes = set(), set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver in ("self", "cls"):
                attributes.add((owner, node.attr))
            else:
                attributes.add((receiver if receiver in CLASSES else None, node.attr))
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in paths:
        visit(_tree(path), None)
    return names | {name for _, name in attributes}, attributes


def _unreferenced(paths, qualnames):
    names, attributes = _references(paths)
    definitions = _definitions()
    unreferenced = set()
    for q in qualnames:
        name, owner = definitions[q]
        if owner is None:
            referenced = name in names
        else:
            referenced = (owner, name) in attributes or (None, name) in attributes
        if not referenced:
            unreferenced.add(q)
    return unreferenced


def test_every_public_definition_runs_or_is_a_listed_test_reference():
    assert _unreferenced(SRC + PERFBENCH, _definitions()) == TEST_REFERENCES


def test_listed_test_references_are_used_by_the_tests():
    assert _unreferenced(TESTS, TEST_REFERENCES) == set()


def _private_definitions(node):
    """The private module-level names that node defines: a function, a
    class or an assigned name starting with one underscore, not a
    dunder."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [target.id for target in targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _names_used(node):
    """Every name that node reads: loaded names, attributes and imported
    names."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name.rpartition(".")[2])
    return used


def _unused_private_definitions(paths):
    nodes = [(path.stem, node) for path in paths for node in _tree(path).body]
    used = [_names_used(node) for _, node in nodes]
    unused = set()
    for i, (module, node) in enumerate(nodes):
        for name in _private_definitions(node):
            if not any(name in names for k, names in enumerate(used) if k != i):
                unused.add(f"{module}.{name}")
    return unused


def test_every_private_definition_is_named_elsewhere_in_src():
    assert _unused_private_definitions(SRC) == set()
