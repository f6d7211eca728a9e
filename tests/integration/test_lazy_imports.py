"""An exact estimate does not import the modules it never uses.

``repro.core`` loads its explorer, sampling and macro-model modules on
first attribute access, and the simulation master loads the resilience
supervisor only for a configuration that sets ``resilience``.  A fresh
interpreter running a ``full`` tcpip estimate must therefore leave all
four out of ``sys.modules``, and asking for a lazy name must still work.
``repro.parallel`` loads its process pool and merge helpers the same
way, so building a bundled system by name does not import the pool or
``multiprocessing``.
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


POOL_MODULES = (
    "repro.parallel.pool",
    "multiprocessing",
    "repro.resilience.supervisor",
)

BUNDLE_SCRIPT = """
import json, sys
from repro.core import PowerCoEstimator
from repro.systems import build_bundle

bundle = build_bundle("tcpip")
PowerCoEstimator(bundle.network, bundle.config).estimate(
    bundle.stimuli(), strategy="full",
    shared_memory_image=bundle.shared_memory_image,
)
loaded = [name for name in %r if name in sys.modules]
import repro.parallel
run_jobs = repro.parallel.run_jobs
print(json.dumps({"loaded": loaded,
                  "run_jobs": run_jobs.__module__,
                  "now": "repro.parallel.pool" in sys.modules}))
""" % (POOL_MODULES,)


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_full_estimate_leaves_lazy_modules_unloaded():
    assert _run(SCRIPT) == {"loaded": [], "explorer": "repro.core.explorer",
                            "now": True}


def test_build_bundle_leaves_process_pool_unloaded():
    assert _run(BUNDLE_SCRIPT) == {"loaded": [],
                                   "run_jobs": "repro.parallel.pool",
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


def test_parallel_lazy_names_resolve_in_process():
    import repro.parallel
    from repro.parallel import merge, pool

    assert repro.parallel.run_jobs is pool.run_jobs
    assert repro.parallel.PoolStats is pool.PoolStats
    assert repro.parallel.merge_metrics_snapshots is merge.merge_metrics_snapshots
    for name in repro.parallel.__all__:
        assert getattr(repro.parallel, name) is not None
    with pytest.raises(AttributeError, match="NoSuchName"):
        repro.parallel.NoSuchName
