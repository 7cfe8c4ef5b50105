"""The public surface: every name stochlab exports has a caller in the package
or in the acceptance battery, unless an allowlisted reason says why not."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochlab"

# exported name -> why it is public though no module or acceptance entry calls it
UNCALLED = {
    "refine": "the one-path refinement that the stacked refinement is tested against",
    "iterated_log_eta": "the one-path eta that the models' eta builders are tested against",
    "equilibrium_attraction": "the public form of the attraction estimator the CLI runs",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced():
    """Names read as a Name or an Attribute (never a string) in the package
    modules and the acceptance battery."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    names = set()
    for f in files + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_an_allowlisted_reason():
    exported = _exported()
    assert UNCALLED.keys() <= exported, "allowlisted names the package no longer exports"
    uncalled = exported - _referenced()
    assert uncalled == set(UNCALLED), (
        f"exported without a caller: {sorted(uncalled - set(UNCALLED))}; "
        f"allowlisted but called: {sorted(set(UNCALLED) - uncalled)}")
