"""Import layering: every module of the package imports only from below it."""

import ast
from pathlib import Path

import mseg

# each module's layer; a relative import must go to a strictly lower one
LAYERS = {
    "errors": 0,
    "segments": 1,
    "linalg": 1,
    "zelevinsky": 2,
    "conditions": 3,
    "harness": 4,
    "cli": 5,
}

PACKAGE = Path(mseg.__file__).parent


def _relative_imports(path: Path):
    """(line, target module) of each relative import, in functions too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:  # from . import a, b
                for alias in node.names:
                    yield node.lineno, alias.name


def test_imports_go_down():
    upward = [
        f"{path.name}:{line} imports .{target}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for line, target in _relative_imports(path)
        if LAYERS[target] >= LAYERS[path.stem]
    ]
    assert upward == []
