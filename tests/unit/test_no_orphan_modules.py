"""Every module of the program is reachable from another module.

A module that no other module of ``repro`` imports, nor names in a
string (``"repro.x.y"`` for ``importlib``, or ``"repro.x.y:callable"``
for a job or builder spec), can only be reached from tests: it is dead
code.  Package ``__init__`` modules and ``repro.__main__`` are entry
points and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"

EXEMPT = {"repro.__main__"}


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _named_modules(path, name):
    """Dotted names that the module at ``path`` imports or spells out."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            named.add(base)
            named.update("%s.%s" % (base, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value.partition(":")[0])
    return named


def orphan_modules():
    """Modules of ``repro`` that no other module of ``repro`` names."""
    modules = {
        _module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))
    }
    named = set()
    for name, path in modules.items():
        named.update(_named_modules(path, name) - {name})
    return sorted(
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in EXEMPT and name not in named
    )


def test_every_module_is_named_by_another():
    assert orphan_modules() == []


def test_scan_sees_imports_and_spec_strings(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import repro.a\n"
        "from repro.b import c\n"
        "from . import d\n"
        "from .e import f\n"
        "SPEC = ('repro.g:build', {})\n"
        "LAZY = {'name': 'repro.h'}\n"
    )
    assert _named_modules(source, "repro.pkg.mod") >= {
        "repro.a", "repro.b", "repro.b.c", "repro.pkg.d", "repro.pkg.e",
        "repro.pkg.e.f", "repro.g", "repro.h",
    }
