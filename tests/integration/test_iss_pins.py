"""Pinned ISS results of every software invocation on the bundled systems.

Each case characterizes the software macro-model library (template
programs) and then runs a ``full`` estimate of one bundled system, with
the default SPARClite power model or the data-dependent DSP-like one,
and hashes every ``Iss.run`` result in order: its entry label, energy
(as a float hex string, so equality is exact), cycles and instruction
count.  An interpreter rewrite must keep every digest.

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
        ("c3c0fb763b596c6f51d399cdb95dbc202b89284cda447967246279a8f3a50393",
         62),
    ("automotive", "sparclite"):
        ("666e23f22d6bf66df1fd255e6db6c43dc1f8f33e4ad5fb459a4bf25f5ec744b0",
         62),
    ("fig1", "dsp"):
        ("d9280585b7d630ca3f901cc4e2950fd5e95ffe7c5d6986d3c14748ff5966178f",
         35),
    ("fig1", "sparclite"):
        ("f63bb59ed59622004214780380aee0ba80a1bde61548090dda908a6a81075fc0",
         35),
    ("tcpip", "dsp"):
        ("2328475a8339f30c72ecb6dd52f823c6c715b7e0c2373c9c5b435e47a2ce7061",
         47),
    ("tcpip", "sparclite"):
        ("145fb5af29d6973ab9029310b5453eea6f5256a1be7a84e8c0643c24c8d611d7",
         47),
    ("tcpip-out", "dsp"):
        ("ec85e12ff45e207b932e900944c6b1904a9a412f26413a2a61cc088dcf089eaf",
         57),
    ("tcpip-out", "sparclite"):
        ("055d1e037b84ade44869af166a5882d1caf21b262223cf28466a867fbe8b5013",
         57),
}


def fields(result):
    return [result.energy.hex(), result.cycles, result.instruction_count]


def iss_pin(system, model):
    """Digest and count of every ISS result of a characterization and a
    ``full`` estimate."""
    clear_process_caches()
    bundle = build_bundle(system)
    config = dataclasses.replace(bundle.config, power_model=MODELS[model]())
    seen = []
    run = Iss.run

    def recording_run(self, entry, memory):
        result = run(self, entry, memory)
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
