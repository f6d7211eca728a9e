"""The TCP/IP network-interface-card checksum subsystem (Section 5.1).

The system behavior follows the paper's Figure 5 for incoming packets:

* **create_pack** (software): receives a packet from the IP layer
  (a ``PACKET_IN`` event whose value is the packet length in words),
  synthesizes the payload, stores it into *shared memory* over the
  system bus, computes the transmitted checksum into the packet header,
  and announces the packet (``PKT_READY``).
* **ip_check** (software): on ``PKT_READY`` it overwrites the header
  words that must not participate in the checksum with zeros, then
  drives the checksum hardware one DMA block at a time through a
  ``CHK_START`` / ``CHK_GO`` / ``CHK_BLK_DONE`` handshake; when all
  blocks are done it compares the computed checksum against the
  transmitted one and flags ``PKT_OK`` or ``CHK_ERR``.
* **checksum** (application-specific hardware): accumulates the 16-bit
  one's-complement checksum of one DMA block per transition, fetching
  the packet body from shared memory through the bus arbiter.

The three processes are exactly the three bus masters whose arbitration
priorities the paper sweeps in Figure 7; the DMA block size is the
``DMA size`` parameter of Tables 1/2.  Because ip_check coordinates one
handshake per DMA block, small DMA sizes mean many short software and
hardware transitions — the mechanism behind the CPU-time column of
Table 1 and the error trend of Table 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bus.model import BusParameters
from repro.cfsm.builder import NetworkBuilder
from repro.cfsm.events import Event
from repro.cfsm.expr import (
    add,
    band,
    const,
    div,
    eq,
    event_value,
    gt,
    lt,
    mul,
    shr,
    sub,
    var,
)
from repro.cfsm.model import Implementation, Network
from repro.cfsm.sgraph import assign, emit, if_, loop, shared_read, shared_write
from repro.master.master import MasterConfig
from repro.systems import workloads
from repro.systems.bundle import SystemBundle

#: Shared-memory layout (word addresses).
PACKET_BASE = 0
HEADER_BASE = 480
HEADER_CHECKSUM = HEADER_BASE  # transmitted checksum
HEADER_SCRUB_0 = HEADER_BASE + 1  # words ip_check zeroes before checking
HEADER_SCRUB_1 = HEADER_BASE + 2

#: Outgoing-packet buffer and header (the reverse flow of Figure 5).
OUT_BASE = 256
OUT_HEADER_CHECKSUM = HEADER_BASE + 8

#: Default packet workload: the paper's Figure 7 processes 3 packets.
DEFAULT_NUM_PACKETS = 3
DEFAULT_PACKET_PERIOD_NS = 150_000.0

#: Bus masters, in the priority order the paper found optimal
#: (Create_Pack > IP_Check > Checksum, descending priority).
BUS_MASTERS = ("create_pack", "ip_check", "checksum")
PAPER_OPTIMAL_PRIORITIES = {"create_pack": 0, "ip_check": 1, "checksum": 2}


def build_network(dma_block_words: int = 16,
                  include_outgoing: bool = False) -> Network:
    """Construct the TCP/IP subsystem network.

    ``dma_block_words`` is baked into the coordination logic (how many
    words ip_check asks the checksum hardware to process per handshake)
    and must match the bus configuration's DMA size — use
    :func:`build_system`, which keeps them consistent.

    With ``include_outgoing`` the reverse flow of the paper's Figure 5
    is added: a host-interface process stores outgoing packets into a
    second shared-memory buffer, the same checksum hardware computes
    their checksum block by block, and ip_check writes the result into
    the outgoing header and signals transmission — with no final
    comparison, exactly as the paper describes for outgoing packets.
    """
    if dma_block_words < 1:
        raise ValueError("DMA block size must be at least 1 word")
    builder = NetworkBuilder("tcpip_nic")

    create_pack = builder.cfsm("create_pack", mapping=Implementation.SW)
    create_pack.input("PACKET_IN", has_value=True)
    create_pack.output("PKT_READY", has_value=True)
    create_pack.var("len", 0)
    create_pack.var("i", 0)
    create_pack.var("data", 1)
    create_pack.var("csum", 0)
    create_pack.transition(
        "receive_packet",
        trigger=["PACKET_IN"],
        body=[
            assign("len", event_value("PACKET_IN")),
            assign("csum", const(0)),
            assign("i", const(0)),
            loop(var("len"), [
                # Synthesized payload word (deterministic LCG), stored
                # into shared memory over the bus, and folded into the
                # 16-bit one's-complement checksum.
                assign("data", band(add(mul(var("data"), const(13)), const(7)),
                                    const(0xFF))),
                shared_write(add(const(PACKET_BASE), var("i")), var("data")),
                assign("csum", add(var("csum"), var("data"))),
                assign("csum", add(band(var("csum"), const(0xFFFF)),
                                   shr(var("csum"), const(16)))),
                assign("i", add(var("i"), const(1))),
            ]),
            shared_write(const(HEADER_CHECKSUM), var("csum")),
            shared_write(const(HEADER_SCRUB_0), const(0xAA)),
            shared_write(const(HEADER_SCRUB_1), const(0x55)),
            emit("PKT_READY", var("len")),
        ],
    )

    ip_check = builder.cfsm("ip_check", mapping=Implementation.SW)
    ip_check.input("PKT_READY", has_value=True)
    ip_check.input("CHK_BLK_DONE", has_value=True)
    ip_check.output("CHK_START", has_value=True)
    ip_check.output("CHK_GO")
    ip_check.output("PKT_OK", has_value=True)
    ip_check.output("CHK_ERR", has_value=True)
    ip_check.output("TX_READY", has_value=True)
    ip_check.var("len", 0)
    ip_check.var("blocks_left", 0)
    ip_check.var("expected", 0)
    ip_check.var("mode", 0)  # 0 = incoming (verify), 1 = outgoing (stamp)
    ip_check.var("blk", dma_block_words)
    # Declared first: finishing the in-flight packet has priority over
    # accepting a new one, so under overload new PKT_READY events wait
    # in (and may be lost from) the one-place buffer — the lossy
    # back-pressure behaviour of a real NIC front-end.
    ip_check.transition(
        "block_done",
        trigger=["CHK_BLK_DONE"],
        body=[
            assign("blocks_left", sub(var("blocks_left"), const(1))),
            if_(gt(var("blocks_left"), const(0)), [
                emit("CHK_GO"),
            ], [
                if_(eq(var("mode"), const(0)), [
                    # Incoming: verify against the transmitted checksum.
                    shared_read("expected", const(HEADER_CHECKSUM)),
                    if_(eq(var("expected"), event_value("CHK_BLK_DONE")), [
                        emit("PKT_OK", event_value("CHK_BLK_DONE")),
                    ], [
                        emit("CHK_ERR", event_value("CHK_BLK_DONE")),
                    ]),
                ], [
                    # Outgoing: stamp the header, no comparison needed.
                    shared_write(const(OUT_HEADER_CHECKSUM),
                                 event_value("CHK_BLK_DONE")),
                    emit("TX_READY", event_value("CHK_BLK_DONE")),
                ]),
            ]),
        ],
    )
    ip_check.transition(
        "prepare_packet",
        trigger=["PKT_READY"],
        body=[
            assign("mode", const(0)),
            assign("len", event_value("PKT_READY")),
            # Scrub the header words that must not enter the checksum.
            shared_write(const(HEADER_SCRUB_0), const(0)),
            shared_write(const(HEADER_SCRUB_1), const(0)),
            # ceil(len / blk) handshakes will be needed.
            assign("blocks_left",
                   div(sub(add(var("len"), var("blk")), const(1)), var("blk"))),
            emit("CHK_START", var("len")),
            emit("CHK_GO"),
        ],
    )
    if include_outgoing:
        ip_check.input("OUT_READY", has_value=True)
        ip_check.output("CHK_START_OUT", has_value=True)
        ip_check.transition(
            "prepare_out",
            trigger=["OUT_READY"],
            body=[
                assign("mode", const(1)),
                assign("len", event_value("OUT_READY")),
                assign("blocks_left",
                       div(sub(add(var("len"), var("blk")), const(1)),
                           var("blk"))),
                emit("CHK_START_OUT", var("len")),
                emit("CHK_GO"),
            ],
        )

    checksum = builder.cfsm("checksum", mapping=Implementation.HW, width=18)
    checksum.input("CHK_START", has_value=True)
    checksum.input("CHK_GO")
    checksum.output("CHK_BLK_DONE", has_value=True)
    checksum.var("sum", 0)
    checksum.var("remaining", 0)
    checksum.var("addr", 0)
    checksum.var("n", 0)
    checksum.var("w", 0)
    checksum.var("blk", dma_block_words)
    checksum.transition(
        "start_packet",
        trigger=["CHK_START"],
        body=[
            assign("sum", const(0)),
            assign("remaining", event_value("CHK_START")),
            assign("addr", const(PACKET_BASE)),
        ],
    )
    if include_outgoing:
        checksum.input("CHK_START_OUT", has_value=True)
        checksum.transition(
            "start_out",
            trigger=["CHK_START_OUT"],
            body=[
                assign("sum", const(0)),
                assign("remaining", event_value("CHK_START_OUT")),
                assign("addr", const(OUT_BASE)),
            ],
        )
    checksum.transition(
        "process_block",
        trigger=["CHK_GO"],
        body=[
            if_(lt(var("remaining"), var("blk")), [
                assign("n", var("remaining")),
            ], [
                assign("n", var("blk")),
            ]),
            loop(var("n"), [
                shared_read("w", var("addr")),
                assign("sum", add(var("sum"), var("w"))),
                assign("sum", add(band(var("sum"), const(0xFFFF)),
                                  shr(var("sum"), const(16)))),
                assign("addr", add(var("addr"), const(1))),
            ]),
            assign("remaining", sub(var("remaining"), var("n"))),
            emit("CHK_BLK_DONE", var("sum")),
        ],
    )

    if include_outgoing:
        host_if = builder.cfsm("host_if", mapping=Implementation.SW)
        host_if.input("PKT_OUT", has_value=True)
        host_if.output("OUT_READY", has_value=True)
        host_if.var("len", 0)
        host_if.var("i", 0)
        host_if.var("data", 5)
        host_if.transition(
            "send_packet",
            trigger=["PKT_OUT"],
            body=[
                assign("len", event_value("PKT_OUT")),
                assign("i", const(0)),
                loop(var("len"), [
                    assign("data", band(add(mul(var("data"), const(17)),
                                            const(3)), const(0xFF))),
                    shared_write(add(const(OUT_BASE), var("i")), var("data")),
                    assign("i", add(var("i"), const(1))),
                ]),
                emit("OUT_READY", var("len")),
            ],
        )

    builder.environment_input("PACKET_IN")
    if include_outgoing:
        builder.environment_input("PKT_OUT")
    # The handshake events travel over the shared bus (they are what
    # makes the modules "handshake with the arbiter" — the power peaks
    # the paper observes).
    builder.on_bus("PKT_READY", "CHK_START", "CHK_GO", "CHK_BLK_DONE")
    if include_outgoing:
        builder.on_bus("OUT_READY", "CHK_START_OUT", "TX_READY")
    return builder.build()


def build_config(
    dma_block_words: int = 16,
    priorities: Optional[Dict[str, int]] = None,
) -> MasterConfig:
    """Master configuration matching the paper's experimental setup."""
    return MasterConfig(bus_params=BusParameters.paper_figure7(
        dma_block_words, priorities or PAPER_OPTIMAL_PRIORITIES
    ))


def build_system(
    dma_block_words: int = 16,
    num_packets: int = DEFAULT_NUM_PACKETS,
    priorities: Optional[Dict[str, int]] = None,
    packet_period_ns: float = DEFAULT_PACKET_PERIOD_NS,
    size_range=(24, 64),
    seed: int = 2000,
    include_outgoing: bool = False,
    num_outgoing: int = 0,
) -> SystemBundle:
    """The TCP/IP subsystem with a packet workload.

    The same ``dma_block_words`` value parameterizes both the bus model
    and the block-wise coordination logic, mirroring how the paper's
    behavioral bus architecture model exposes the DMA size.  With
    ``include_outgoing``, ``num_outgoing`` host packets are transmitted
    through the reverse flow, interleaved between arrivals.
    """
    network = build_network(dma_block_words, include_outgoing=include_outgoing)
    config = build_config(dma_block_words, priorities)
    if include_outgoing:
        config.bus_params.priorities.setdefault("host_if", 3)

    def stimuli() -> List[Event]:
        arrivals = workloads.packet_arrivals(
            num_packets, packet_period_ns, size_range=size_range, seed=seed
        )
        if include_outgoing and num_outgoing:
            outgoing = workloads.packet_arrivals(
                num_outgoing, packet_period_ns, size_range=size_range,
                seed=seed + 1, start_ns=100.0 + packet_period_ns * 0.5,
                event_name="PKT_OUT",
            )
            return workloads.merge(arrivals, outgoing)
        return arrivals

    return SystemBundle(
        network=network,
        config=config,
        stimuli_factory=stimuli,
        description=(
            "TCP/IP NIC checksum subsystem, DMA=%d, %d packets"
            % (dma_block_words, num_packets)
        ),
    )
