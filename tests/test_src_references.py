"""src/ keeps only what runs: every public function, class and method of
orbitcal is referenced somewhere in src/orbitcal or perfbench, as a
name, an attribute or an imported name, unless it is listed below as
kept for the tests.  A helper left behind by a refactor fails here."""

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
    """module.qualname -> name of every public module-level function or
    class and every public method of such a class."""
    out = {}
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return out


def _references(paths):
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_definition_runs_or_is_a_listed_test_reference():
    used = _references(SRC + PERFBENCH)
    unreferenced = {qualname for qualname, name in _definitions().items() if name not in used}
    assert unreferenced == TEST_REFERENCES


def test_listed_test_references_are_used_by_the_tests():
    used = _references(TESTS)
    definitions = _definitions()
    assert {qualname for qualname in TEST_REFERENCES if definitions[qualname] not in used} == set()
