"""No solgeo module imports another module's private (underscore) names."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "solgeo"


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "solgeo":
            continue
        for alias in node.names:
            if alias.name.startswith("_") or any(
                    part.startswith("_") for part in module.split(".")):
                yield f"{path.name}:{node.lineno} imports {alias.name} " \
                      f"from {'.' * node.level}{module}"


def test_no_cross_module_private_imports():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offences = [line for path in paths for line in _private_imports(path)]
    assert offences == []
