"""Pinned ISS results of every software invocation on the bundled systems.

Each case characterizes the software macro-model library (template
programs) and then runs a ``full`` estimate of one bundled system, with
the default SPARClite power model or the data-dependent DSP-like one,
and hashes every ``Iss.run`` result in order: its energy (as a float hex
string, so equality is exact), cycles, instruction count, stalls, taken
branches, class counts in insertion order and memory reference lists.
An interpreter rewrite must keep every digest.

To re-record after an intended change of results, run this module as a
script (``PYTHONPATH=src python tests/integration/test_iss_pins.py``)
and paste its output over the table below.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import PowerCoEstimator
from repro.lru import clear_process_caches
from repro.sw.iss import Iss
from repro.sw.power_model import InstructionPowerModel
from repro.systems import build_bundle, system_names

MODELS = {
    "sparclite": InstructionPowerModel.default_sparclite,
    "dsp": InstructionPowerModel.dsp_like,
}

#: (sha256 of the invocation results, invocation count), by (system, model).
ISS_PINS = {
    ("automotive", "dsp"):
        ("f717a3c85e770f0b1fa9b1120d0eeb321394e897e6efaf76542edbc865644072",
         62),
    ("automotive", "sparclite"):
        ("15c65fc390276403e419121efbf6c295488336e865d022fbca6ce51b00d84753",
         62),
    ("fig1", "dsp"):
        ("8338d61e6420cd3f1a0365a7f46f6da1b8900a86453288310b37f5eb726bb5d9",
         35),
    ("fig1", "sparclite"):
        ("e9e29a3958e76d8b455b65dedfc6cd275eea869e27770dc8a46e5be09d90cb11",
         35),
    ("tcpip", "dsp"):
        ("b58c9c9d0e0e01c44a8a701108500fe1ff66c899e80887fe0d792969655755ed",
         47),
    ("tcpip", "sparclite"):
        ("c02551f113f31e44b4eb7b31e168c29eb7d5af1bb8361c770ad934f067366f69",
         47),
    ("tcpip-out", "dsp"):
        ("04148b79e02f644e72084fcebe9340aa99b9e8f312867c4a6b6e86e4e99c3367",
         57),
    ("tcpip-out", "sparclite"):
        ("5fce413de2c1dc41226766200eda93398219d23aebc1fa4d96dfefa350062512",
         57),
}


def fields(result):
    return [
        result.energy.hex(), result.cycles, result.instruction_count,
        result.stall_cycles, result.branches_taken,
        list(result.class_counts.items()),
        list(result.memory_reads), list(result.memory_writes),
    ]


def iss_pin(system, model):
    """Digest and count of every ISS result of a characterization and a
    ``full`` estimate."""
    clear_process_caches()
    bundle = build_bundle(system)
    config = dataclasses.replace(bundle.config, power_model=MODELS[model]())
    seen = []
    run = Iss.run

    def recording_run(self, entry, memory, breakpoints=None):
        result = run(self, entry, memory, breakpoints)
        seen.append([entry] + fields(result))
        return result

    Iss.run = recording_run
    try:
        estimator = PowerCoEstimator(bundle.network, config)
        estimator.parameter_file()
        estimator.estimate(
            bundle.stimuli(), strategy="full",
            shared_memory_image=bundle.shared_memory_image,
        )
    finally:
        Iss.run = run
    return hashlib.sha256(json.dumps(seen).encode()).hexdigest(), len(seen)


def test_pins_cover_every_system_and_model():
    assert sorted(ISS_PINS) == sorted(
        (system, model) for system in system_names() for model in MODELS
    )


@pytest.mark.parametrize("system,model", sorted(ISS_PINS))
def test_iss_results_match_pin(system, model):
    assert iss_pin(system, model) == ISS_PINS[system, model]


if __name__ == "__main__":
    for system, model in sorted(
        (system, model) for system in system_names() for model in MODELS
    ):
        digest, count = iss_pin(system, model)
        print("    (%r, %r):\n        (%r,\n         %d)," % (
            system, model, digest, count))
