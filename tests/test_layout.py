"""The suite's layout: test modules share code only through tests/oracle.py,
and the oracle imports none of the functions it is the reference for."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CHECKED = {"exploit_stage", "tumble_step", "k_nearest", "rank_neighbours", "euclidean",
           "repair_bounds", "rank_weights"}


def imports(path):
    """(module, name) per name an `import` or `from ... import` statement brings in."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module or alias.name, alias.name) for alias in node.names)


def test_test_modules_import_only_the_oracle_and_the_oracle_nothing_it_checks():
    for path in sorted(TESTS.glob("test_*.py")):
        crossed = [module for module, _ in imports(path)
                   if module.split(".")[0].startswith("test_")]
        assert not crossed, (path.name, crossed)
    found = [(module, name) for module, name in imports(TESTS / "oracle.py") if name in CHECKED]
    assert not found, found
