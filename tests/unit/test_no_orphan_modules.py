"""Every module and every function of the program has a caller.

A module that no other module of ``repro`` imports, nor names in a
string (``"repro.x.y"`` for ``importlib``, or ``"repro.x.y:callable"``
for a job or builder spec), can only be reached from tests: it is dead
code.  Package ``__init__`` modules and ``repro.__main__`` are entry
points and are exempt.

The same holds one level down.  A function or method of ``repro`` that
nothing in the program, the benchmarks, the examples or the scripts
uses -- as a name, an attribute, an import, or a string that is wholly
an identifier (a ``getattr`` name), a ``"Class.method"`` patch target
or a ``"module:callable"`` spec -- is dead code, unless a test reads
the program through it (:data:`TEST_ORACLES`).  Naming is not using:
docstrings, ``__all__`` entries, prose strings and a package
``__init__``'s re-exports (its imports and lazy-import tables) do not
count.  Dunder methods are called by Python itself and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

EXEMPT = {"repro.__main__"}

#: Trees whose code may call a function of the program.
CALLERS = ("src/repro", "perfbench", "benchmarks", "examples", "scripts")

#: Functions that only tests call, each because it shows a test what no
#: caller of the program needs to read.  Each must still be called from
#: some test.
TEST_ORACLES = {
    # A gate-level register, checked against the behavioural state.
    "read_variable",
    # The statistics the §4.2 cache keeps for one control path.
    "path_statistics",
    # The events waiting in a CFSM's input buffer.
    "pending_names",
    # The closed-form burst count the bus model's grants are checked
    # against.
    "blocks_needed",
    # The torn journal entries that the last replay dropped.
    "discarded_tail_entries",
    # One transition's row of a cacheability report.
    "row_for",
    # Empties the ISS run memo, so that a test interprets every run.
    "clear_iss_run_memo",
    # Reads a parameter file back: the round trip of what
    # `repro characterize` writes with `ParameterFile.serialize`.
    "parse",
}

_IDENTIFIER = r"[A-Za-z_]\w*"
_WORD = re.compile(_IDENTIFIER)
#: A string that names code: ``name``, ``Class.method``, ``pkg.mod`` or
#: ``pkg.mod:callable``.  Anything else (a sentence, a format) is prose.
_USE_STRING = re.compile(
    r"{0}(?:\.{0})*(?::{0}(?:\.{0})*)?\Z".format(_IDENTIFIER))


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


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _not_uses(tree, package_init):
    """The nodes of ``tree`` that name code without using it."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and _is_str(first.value):
                skipped.add(first.value)  # a docstring
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(ast.walk(node.value))
    if package_init:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.update(ast.walk(node))
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Dict)
                  and node.value.values
                  and all(_is_str(value) and ":" not in value.value
                          for value in node.value.values)):
                skipped.update(ast.walk(node.value))  # a lazy-import table
    return skipped


def _defined_and_named(path):
    """Function names that ``path`` defines, and the names it uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skipped = _not_uses(tree, path.name == "__init__.py")
    defined, named = set(), set()
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif _is_str(node) and _USE_STRING.match(node.value):
            named.update(_WORD.findall(node.value))
    return defined, named


def orphan_functions():
    """Functions of ``repro`` that nothing outside the tests uses."""
    defined, named = set(), set()
    for tree in CALLERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            path_defined, path_named = _defined_and_named(path)
            named |= path_named
            if tree == "src/repro":
                defined |= path_defined
    return sorted(
        name for name in defined - named - TEST_ORACLES
        if not (name.startswith("__") and name.endswith("__"))
    )


def test_every_function_is_named_outside_the_tests():
    assert orphan_functions() == []


def test_every_test_oracle_is_still_defined():
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        defined |= _defined_and_named(path)[0]
    assert TEST_ORACLES <= defined


def test_every_test_oracle_is_called_from_a_test():
    """An oracle whose test is gone would hide dead code.  Reading a
    property counts as calling it."""
    called = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    assert TEST_ORACLES - called == set()


def test_function_scan_sees_calls_attributes_imports_and_strings(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""See :func:`documented`."""\n'
        "from repro.a import imported\n"
        "__all__ = ['exported']\n"
        "def defined():\n"
        "    '''Calls :func:`described`.'''\n"
        "    # commented\n"
        "    called()\n"
        "    obj.method()\n"
        "    getattr(obj, 'looked_up')\n"
        "    log('prose names spoken here')\n"
        "    return ('Owner.patched', 'repro.b:built')\n"
    )
    defined, named = _defined_and_named(source)
    assert defined == {"defined"}
    assert {"imported", "called", "method", "looked_up", "Owner",
            "patched", "built"} <= named
    assert not {"defined", "commented", "documented", "described",
                "exported", "spoken"} & named


def test_function_scan_ignores_package_re_exports(tmp_path):
    package = tmp_path / "__init__.py"
    package.write_text(
        "from repro.a import reexported\n"
        "import repro.b.aliased\n"
        "_LAZY = {'lazy': 'repro.c'}\n"
        "BUILDERS = {'fig': ('repro.d:built', {})}\n"
        "def __getattr__(name):\n"
        "    return load(_LAZY[name])\n"
    )
    defined, named = _defined_and_named(package)
    assert {"load", "built"} <= named
    assert not {"reexported", "aliased", "lazy"} & named
