"""src/ keeps only what runs: every public function, class and method of
orbitcal is referenced somewhere in src/orbitcal or perfbench, unless it
is listed below as kept for the tests.  A function or class counts as
referenced through a name, an attribute or an imported name; a method
only through an attribute, so that a free function of the same name
does not keep it.  A helper left behind by a refactor fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "orbitcal").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names that only the tests use, each as module.qualname
TEST_REFERENCES = {
    "elim.parse_equation",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """module.qualname -> (name, is a method) of every public
    module-level function or class and every public method of such a
    class."""
    out = {}
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = (node.name, False)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            out[f"{path.stem}.{node.name}.{item.name}"] = (item.name, True)
    return out


def _references(paths):
    """(every name referenced, the names referenced as attributes)."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names | attributes, attributes


def _unreferenced(paths, qualnames):
    names, attributes = _references(paths)
    definitions = _definitions()
    return {q for q in qualnames if definitions[q][0] not in (attributes if definitions[q][1] else names)}


def test_every_public_definition_runs_or_is_a_listed_test_reference():
    assert _unreferenced(SRC + PERFBENCH, _definitions()) == TEST_REFERENCES


def test_listed_test_references_are_used_by_the_tests():
    assert _unreferenced(TESTS, TEST_REFERENCES) == set()
