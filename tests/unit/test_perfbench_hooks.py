"""The benchmark's span hooks still find every entry point they wrap.

``perfbench/tracer.py`` attributes time to layers by patching named
methods and module globals of the program (``owner.__dict__[attr]``).
A refactor that renames, moves or inherits one of them would make
``perfbench/run.py --trace 1`` fail; this test makes it fail here
instead.  It only imports the tracer and undoes its patches.
"""

import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_attributes(tracing):
    """(owner, attribute) of every entry point the tracer wraps."""
    paths = ([(module, path) for module, path, _, _ in tracing.SPANS]
             + list(tracing.WAITS)
             + [(module, "call_with_watchdog")
                for module in tracing.WATCHDOG_SITES])
    return [tracing._resolve(module, path) for module, path in paths]


def test_install_wraps_every_entry_point_and_remove_restores(tracer_module):
    tracing = tracer_module
    installation = tracing.install(tracing.Tracer())
    try:
        hooked = hooked_attributes(tracing)
        assert len(hooked) == len(set(hooked))
        for owner, attr in hooked:
            assert getattr(owner.__dict__[attr], "perfbench_span", False), (
                "%s.%s is not wrapped" % (owner.__name__, attr))
    finally:
        installation.remove()
    for owner, attr in hooked:
        assert not getattr(owner.__dict__[attr], "perfbench_span", False), (
            "%s.%s is still wrapped" % (owner.__name__, attr))

