"""Pinned digests of whole energy reports and Fig. 7 sweep rows.

Kernel rewrites (gate-level evaluation, ISS, master scheduling) must
keep every reported figure bit for bit.  Each case hashes the canonical
JSON of a report with its wall-clock fields (names ending in
``_seconds``) removed, so any change to an energy, a count, a
provenance tally or a strategy statistic changes the digest.

To re-record after an intended change of results, run this module as a
script (``PYTHONPATH=src python tests/integration/test_report_pins.py``)
and paste its output over the tables below.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.explorer import parallel_sweep, priority_permutations
from repro.parallel.runners import run_estimate
from repro.systems import builder_spec, system_names, tcpip

STRATEGIES = ("full", "caching", "macromodel", "sampling")

#: sha256 of the canonical report, by (system, strategy).
REPORT_DIGESTS = {
    ("automotive", "full"):
        "1247ec46c6f240ffd5609bd96db6c9712f54a3fd0b114952b31c03d1f368f0fd",
    ("automotive", "caching"):
        "55b212e69b5e405c030cda1929cb5877f04ddf995137e9f8cfd42a7e97f2d0ef",
    ("automotive", "macromodel"):
        "b9434add193c808c27c3d58fc308cc178b7d1d61052cd6d1645a854f1e8acff5",
    ("automotive", "sampling"):
        "22904ac1bc9bf67f70e8e9c844cdf88361f0cda9d93a17b6d6f365f6f9808db0",
    ("fig1", "full"):
        "2a13c7bccb2e7a3504239031e0f6cfcfb8a69421e45c073a3d5a45ce987ec810",
    ("fig1", "caching"):
        "b697552ff7bea022bcb81d762e94292e279fd5674910fb64a8a656168b8c36ee",
    ("fig1", "macromodel"):
        "33a98293b8e3a4b45fd4364fcc0654aeb0c73244bdd47cdbd2a376971cd745d9",
    ("fig1", "sampling"):
        "9febd4f20c84b52fa4d603cf5a26ef898cb61120f7ff048f7dcc251cf2ecc794",
    ("tcpip", "full"):
        "bd7c8b02cb157bf33dbafe35416b04838602e2cbb0c64859ba10703de20d8858",
    ("tcpip", "caching"):
        "c4705bfd0f6dd460958e7fa707db0fc80c497c03ae04f344d58f8f6ebd5e65dd",
    ("tcpip", "macromodel"):
        "322b8de2badf8e3acd97f4998a8ba90a9566b75241f37c0bbb4c900170415083",
    ("tcpip", "sampling"):
        "46d09da78389f92d852cd654ec9c6be3d44b9396b60245e02196dade30bb9152",
    ("tcpip-out", "full"):
        "9acaf7c4fdab6fa99ed28174aea190e4b47dd75370a9b5c115bafdfb323b576c",
    ("tcpip-out", "caching"):
        "531538067661b4539c54b1114b387545d5ca12bae51d9f98b4b34c9d828d74d4",
    ("tcpip-out", "macromodel"):
        "b49ca7562ac8d40bab05766fff853ea118355c2176854a054aa484787dcab591",
    ("tcpip-out", "sampling"):
        "9dad4cb0d1ac87a8dba33fe1a4ab043d37e8dd424f0de4afd33d0d87a3579e8c",
}

#: The Fig. 7 sweep, cut to two DMA sizes (all six priority orders).
SWEEP_DMA_SIZES = (2, 16)
SWEEP_KWARGS = {"num_packets": 1, "packet_period_ns": 30_000.0}
SWEEP_DIGEST = (
    "a015c5e8d87be231559e2c7d90cab5a4cac830febd5b69bd664e991d71a863ab"
)


def canonical(report):
    payload = {
        key: value
        for key, value in dataclasses.asdict(report).items()
        if not key.endswith("_seconds")
    }
    return json.dumps(payload, sort_keys=True, default=repr)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(system, strategy):
    builder, kwargs = builder_spec(system)
    return digest(canonical(run_estimate(builder, dict(kwargs),
                                         strategy=strategy)))


def sweep_digest():
    points, results = parallel_sweep(
        "repro.systems.tcpip:build_system",
        SWEEP_DMA_SIZES,
        priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy="caching",
        jobs=1,
        builder_kwargs=SWEEP_KWARGS,
    )
    assert all(result.ok for result in results)
    rows = [
        [point.dma_block_words, point.priority_label, canonical(point.report)]
        for point in points
    ]
    return digest(json.dumps(rows))


def test_pins_cover_every_system_and_strategy():
    assert sorted(REPORT_DIGESTS) == sorted(
        (system, strategy)
        for system in system_names() for strategy in STRATEGIES
    )


@pytest.mark.parametrize("system,strategy", sorted(REPORT_DIGESTS))
def test_report_matches_pin(system, strategy):
    assert report_digest(system, strategy) == REPORT_DIGESTS[system, strategy]


def test_fig7_sweep_rows_match_pin():
    assert sweep_digest() == SWEEP_DIGEST


if __name__ == "__main__":
    for system, strategy in sorted(REPORT_DIGESTS):
        print("    (%r, %r): %r," % (system, strategy,
                                       report_digest(system, strategy)))
    print("SWEEP_DIGEST = %r" % sweep_digest())
