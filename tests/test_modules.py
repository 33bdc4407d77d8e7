"""No module of the package reaches into another module's private names.

A private helper (a name with one leading underscore) may change with its
module; a sibling that imports it, or reads it off the module, would break
silently.  The check reads src/dsvs/*.py with ast and flags three forms:
`from .x import _y`, `from dsvs.x import _y`, and `x._y` where x names a
sibling module bound by an import.

Every public top-level function, class and constant is named somewhere
besides its own definition and the package's re-export: by another
statement of the package, by the bench, or by README.md.

The package itself exports the pipeline a caller drives and the errors it
raises, and nothing else: every name that the bench, README.md or CI reads
off `dsvs` is among them, and each pipeline function is read there.

`import dsvs.cli` also loads nothing a cli call never uses: a child
interpreter, started without its site hooks, records what the import
adds beyond numpy's own.
"""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy

import dsvs
from dsvs import errors

SRC = Path(dsvs.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


def _top_level(source: str):
    """(names defined, names used) for each top-level statement: a
    definition is a public function, class or assigned constant, a use a
    name read, imported or read as an attribute."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            defined = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            defined = [stmt.target.id]
        else:
            defined = []
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        yield [n for n in defined if not n.startswith("_")], used


def unnamed_public_names(modules: dict[str, str], texts: list[str]) -> list[str]:
    """'module.name' for each public top-level definition of the modules
    (module -> source) that no other top-level statement of theirs uses
    and no text names as a word."""
    statements = [(m, *pair) for m, source in modules.items() for pair in _top_level(source)]
    text = "\n".join(texts)
    return [f"{module}.{name}"
            for i, (module, defined, _) in enumerate(statements) for name in defined
            if not any(name in used for j, (_, _, used) in enumerate(statements) if j != i)
            and not re.search(rf"\b{re.escape(name)}\b", text)]


def test_the_unnamed_check_finds_a_name_only_its_definition_uses():
    modules = {
        "a": "X = 1\ndef f():\n    return f()\ndef g():\n    return X\nclass C:\n    pass",
        "b": "from .a import g\ndef h(x):\n    return x.C",
    }
    assert unnamed_public_names(modules, []) == ["a.f", "b.h"]
    assert unnamed_public_names(modules, ["call f(), not fh or h_"]) == ["b.h"]


def test_every_public_name_is_named_beyond_its_definition():
    # the package's re-export in __init__.py does not count as a use
    modules = {p.relative_to(SRC).with_suffix("").as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py")) if p != SRC / "__init__.py"}
    texts = [p.read_text(encoding="utf-8")
             for p in (*sorted((REPO / "bench").glob("*.py")), REPO / "README.md")]
    assert unnamed_public_names(modules, texts) == []


PIPELINE = {"compile_root", "disambiguate", "expect", "fixture_path", "initial_state",
            "load_lexicon", "parse_sequence", "parse_word", "plausibility"}


def package_names_read(text: str, modules: set[str]) -> set[str]:
    """The names text reads off the dsvs package, by `from dsvs import`
    or as `dsvs.name`, leaving out the package's modules."""
    names = set()
    for group in re.findall(r"\bfrom dsvs import (\([^)]*\)|[\w, ]+)", text):
        names.update(re.findall(r"\w+", re.sub(r"\s+as\s+\w+", "", group)))
    names.update(re.findall(r"\bdsvs\.([A-Za-z]\w*)", text))
    return names - modules


def test_the_read_check_finds_each_form():
    text = ("from dsvs import a, b as c; x\n"
            "from dsvs import (\n    d,\n    tensor,\n)\n"
            "'from dsvs import e'\nself.dsvs.f(1)\ndsvs.tensor.Tensor\n"
            "dsvs.__file__\nfrom dsvs.parser import g\nimport dsvs.cli\n")
    assert package_names_read(text, {"cli", "parser", "tensor"}) == {"a", "b", "d", "e", "f"}


def test_the_package_exports_the_pipeline_and_the_errors_only():
    exported = {name for name, value in vars(dsvs).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    family = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.DsvsError)}
    assert exported == PIPELINE | family
    modules = {p.stem for p in SRC.glob("*.py")}
    texts = [p.read_text(encoding="utf-8")
             for p in (*sorted((REPO / "bench").glob("*.py")), REPO / "README.md",
                       REPO / ".github" / "workflows" / "tests.yml")]
    read = package_names_read("\n".join(texts), modules)
    assert sorted(read - exported) == []
    assert sorted(PIPELINE - read) == []


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
