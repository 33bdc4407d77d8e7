"""No module of the package reaches into another module's private names.

A private helper (a name with one leading underscore) may change with its
module; a sibling that imports it, or reads it off the module, would break
silently.  The check reads src/dsvs/*.py with ast and flags three forms:
`from .x import _y`, `from dsvs.x import _y`, and `x._y` where x names a
sibling module bound by an import.

`import dsvs.cli` also loads nothing a cli call never uses: a child
interpreter, started without its site hooks, records what the import
adds beyond numpy's own.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy

import dsvs

SRC = Path(dsvs.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def private_uses(source: str, siblings: set[str]) -> list[str]:
    """Each place in source that uses a sibling module's private name."""
    tree = ast.parse(source)
    modules = {f"dsvs.{m}" for m in siblings}  # dotted names bound to a sibling
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            package = (node.level == 1 and node.module is None) or node.module == "dsvs"
            internal = node.level == 1 or (node.module or "").split(".")[0] == "dsvs"
            for alias in node.names:
                if internal and _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif package and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _dotted(node.value) in modules:
                found.append(f"line {node.lineno}: reads {_dotted(node)}")
    return found


def test_the_check_finds_each_form():
    siblings = {"lexicon", "tensor"}
    for source in (
        "from .tensor import Tensor, _freeze",
        "from dsvs.tensor import _freeze",
        "from . import _helper",
        "from . import tensor\ntensor._freeze([1])",
        "from dsvs import tensor as t\nt._freeze([1])",
        "import dsvs.tensor\ndsvs.tensor._freeze([1])",
        "import dsvs.tensor as t\nx = t._freeze",
    ):
        assert len(private_uses(source, siblings)) == 1, source
    for source in (
        "from .tensor import Tensor, __all__",
        "from . import tensor\ntensor.Tensor",
        "from .lexicon import Lexicon\ndef f(lexicon):\n    return lexicon._by_surface",
        "from json.encoder import _private",
        "self._slot = 1",
    ):
        assert private_uses(source, siblings) == [], source


def test_no_module_uses_a_sibling_module_private_name():
    files = sorted(SRC.glob("*.py"))
    siblings = {p.stem for p in files} | {p.parent.name for p in SRC.glob("*/__init__.py")}
    found = {p.name: private_uses(p.read_text(encoding="utf-8"), siblings) for p in files}
    assert {name: uses for name, uses in found.items() if uses} == {}


# modules that importlib.resources brings in, none of which dsvs uses
_UNUSED = ("importlib.resources", "tempfile", "shutil", "bz2", "lzma")


def test_importing_the_cli_loads_no_unused_module():
    # -S: no .pth file runs, so nothing the site hooks import is counted
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC.parent)!r}, {str(Path(numpy.__file__).parent.parent)!r}]\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import dsvs.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "dsvs.cli" in added
    assert [m for m in added if m in _UNUSED or m.startswith("importlib.resources.")] == []
