"""An exact estimate does not import the modules it never uses.

``repro.core`` loads its explorer, sampling and macro-model modules on
first attribute access, and the simulation master loads the resilience
supervisor only for a configuration that sets ``resilience``.  A fresh
interpreter running a ``full`` tcpip estimate must therefore leave all
four out of ``sys.modules``, and asking for a lazy name must still work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

LAZY_MODULES = (
    "repro.core.explorer",
    "repro.core.sampling",
    "repro.core.macromodel",
    "repro.resilience.supervisor",
)

SCRIPT = """
import json, sys
from repro.core import PowerCoEstimator
from repro.systems import tcpip

bundle = tcpip.build_system()
PowerCoEstimator(bundle.network, bundle.config).estimate(
    bundle.stimuli(), strategy="full",
    shared_memory_image=bundle.shared_memory_image,
)
loaded = [name for name in %r if name in sys.modules]
import repro.core
explorer = repro.core.DesignSpaceExplorer
print(json.dumps({"loaded": loaded,
                  "explorer": explorer.__module__,
                  "now": "repro.core.explorer" in sys.modules}))
""" % (LAZY_MODULES,)


def test_full_estimate_leaves_lazy_modules_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome == {"loaded": [], "explorer": "repro.core.explorer",
                       "now": True}


def test_lazy_names_resolve_in_process():
    import repro.core
    from repro.core import explorer, macromodel, sampling

    assert repro.core.DesignSpaceExplorer is explorer.DesignSpaceExplorer
    assert repro.core.MacromodelStrategy is macromodel.MacromodelStrategy
    assert repro.core.StaticCompactor is sampling.StaticCompactor
    for name in repro.core.__all__:
        assert getattr(repro.core, name) is not None
    with pytest.raises(AttributeError, match="NoSuchName"):
        repro.core.NoSuchName
