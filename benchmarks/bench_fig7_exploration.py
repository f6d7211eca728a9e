"""Figure 7: exhaustive communication-architecture exploration.

The paper sweeps all meaningful arbitration-priority assignments of the
three bus masters (6 permutations) and DMA sizes 2..128 (7 values) for
the TCP/IP subsystem processing 3 network packets, with Vdd = 3.3 V,
Cbit = 10 nF, and 8-bit address/data buses, and reports:

* the energy surface over (priority assignment, DMA size),
* a minimum at DMA size 128 with priorities Create_Pack > IP_Check >
  Checksum (descending),
* about 180 minutes of exploration time on their workstation.

(The caption says 48 design points; 6 x 7 = 42 — we sweep the full
cross product.)  Packets arrive faster than they are processed so the
three masters genuinely contend for the bus; energy-caching accelerates
the sweep, which is exactly the iterative-exploration use case the
paper builds the speedup techniques for.
"""

from repro.core import DesignSpaceExplorer
from repro.core.explorer import parallel_sweep, priority_permutations
from repro.systems import tcpip

from benchmarks.common import (
    clear_process_caches,
    emit,
    format_table,
    write_result,
)

DMA_SIZES = (2, 4, 8, 16, 32, 64, 128)
NUM_PACKETS = 3
PACKET_PERIOD_NS = 30_000.0


def run_experiment(emulate_seed_baseline=False):
    bundle = tcpip.build_system(
        dma_block_words=2,  # rebuilt per point by the explorer
        num_packets=NUM_PACKETS,
        packet_period_ns=PACKET_PERIOD_NS,
    )
    assignments = priority_permutations(list(tcpip.BUS_MASTERS))

    points = []
    for priorities in assignments:
        for dma in DMA_SIZES:
            # The DMA size is baked into the handshake logic as well as
            # the bus parameters, so rebuild the bundle per point (the
            # paper's tool re-runs without recompiling; our network
            # construction is the cheap part).
            if emulate_seed_baseline:
                clear_process_caches()
            point_bundle = tcpip.build_system(
                dma_block_words=dma,
                num_packets=NUM_PACKETS,
                packet_period_ns=PACKET_PERIOD_NS,
                priorities=priorities,
            )
            explorer = DesignSpaceExplorer(
                point_bundle.network, point_bundle.config,
                point_bundle.stimuli_factory,
            )
            points.append(explorer.evaluate(dma, priorities,
                                            strategy="caching"))
    return points


def test_fig7_design_space_exploration(benchmark, capsys):
    points = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert len(points) == 42

    by_priority = {}
    for point in points:
        by_priority.setdefault(point.priority_label, {})[
            point.dma_block_words] = point.total_energy_j

    rows = []
    for label in sorted(by_priority):
        row = [label]
        for dma in DMA_SIZES:
            row.append("%.2f" % (by_priority[label][dma] * 1e6))
        rows.append(row)
    table = format_table(
        ["priority assignment \\ DMA"] + [str(d) for d in DMA_SIZES],
        rows,
        "Figure 7: energy (uJ) vs. priority assignment and DMA size "
        "(%d packets)" % NUM_PACKETS,
    )

    best = DesignSpaceExplorer.minimum_energy_point(points)
    summary = (
        "\nminimum-energy point: DMA=%d, priorities: %s (%.3f uJ)\n"
        "paper's minimum:      DMA=128, priorities: create_pack > "
        "ip_check > checksum" % (
            best.dma_block_words, best.priority_label,
            best.total_energy_j * 1e6,
        )
    )
    emit(capsys, "\n" + table + summary)
    write_result("fig7_exploration", table + summary)

    # Energy falls monotonically with DMA size for every priority
    # assignment, and the global minimum sits at the largest DMA size —
    # the paper's headline observation.
    for label, series in by_priority.items():
        energies = [series[dma] for dma in DMA_SIZES]
        assert all(a >= b for a, b in zip(energies, energies[1:])), (
            label, energies)
    assert best.dma_block_words == 128

    # Priorities matter: at the smallest DMA size the spread across
    # assignments is non-zero (the masters contend for the bus).
    smallest = [by_priority[label][2] for label in by_priority]
    assert max(smallest) > min(smallest)


def test_fig7_cleared_cached_and_parallel_sweeps_agree():
    """Clearing caches, keeping them, and fanning out agree exactly.

    The baseline clears every process-wide cache before each point,
    emulating the pre-caching sequential path (each design point
    re-compiled the netlist, re-decoded the programs, and re-simulated
    every recurring hardware run from scratch).  The cached sweep keeps
    the caches, and ``jobs=4`` fans the points out over the process
    pool.  All three must report the same energies; their speed is
    measured by ``perfbench`` (explore-fig7), not here.
    """
    baseline_points = run_experiment(emulate_seed_baseline=True)
    clear_process_caches()
    sequential_points = run_experiment()
    parallel_points, job_results = parallel_sweep(
        "repro.systems.tcpip:build_system",
        DMA_SIZES,
        priority_permutations(list(tcpip.BUS_MASTERS)),
        strategy="caching",
        jobs=4,
        builder_kwargs={
            "num_packets": NUM_PACKETS,
            "packet_period_ns": PACKET_PERIOD_NS,
        },
    )
    assert all(result.ok for result in job_results)

    def energies(points):
        return [
            (p.dma_block_words, p.priority_label, p.report.total_energy_j)
            for p in points
        ]

    assert energies(sequential_points) == energies(baseline_points)
    assert energies(parallel_points) == energies(baseline_points)
