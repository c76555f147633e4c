"""Import layering: every module of the package imports only from below it,
and starting the package imports no more of the standard library than it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mseg

# each module's layer; a relative import must go to a strictly lower one
LAYERS = {
    "errors": 0,
    "segments": 1,
    "linalg": 1,
    "zelevinsky": 2,
    "conditions": 3,
    "checks": 4,
    "fanout": 5,
    "harness": 6,
    "cli": 7,
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


def _imported_modules(path: Path):
    """(line, top-level module) of each absolute import, in functions too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, about
    # a third of the package's start-up; the value types are built without it
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in _imported_modules(path)
        if module == "dataclasses"
    ]
    assert found == []


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # subtracting the modules present before the import keeps this valid
    # where site or a .pth file imports them itself; mseg.fanout is loaded
    # by the first suite run, not at start-up
    code = (
        "import sys; before = set(sys.modules); import mseg, mseg.cli; "
        "print(sorted({'dataclasses', 'inspect', 'mseg.fanout'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert out.stdout == b"[]\n"
