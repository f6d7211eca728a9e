"""Structural netlist model and a construction toolkit.

Nets are integer ids; net 0 is constant 0 and net 1 is constant 1.
Gates are appended in dependency order by the builder, so the gate list
is already a valid combinational evaluation order (this is what lets
:mod:`repro.hw.logicsim` compile the netlist to straight-line code).
:meth:`NetlistBuilder.build` freezes the result: the gate and flip-flop
lists become tuples and the netlist takes its content key
(:class:`NetlistKey`) once, so simulators never re-check or re-hash it.

The builder provides single-bit gate helpers with light constant
folding, plus the W-bit bus operators (ripple-carry adder/subtractor,
bus logic, 2:1 and one-hot muxes, zero detection, barrel shifter) that
:mod:`repro.hw.synth` assembles datapaths from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from repro.errors import ReproError

CONST0 = 0
CONST1 = 1


class NetlistError(ReproError):
    """Raised on malformed netlist construction.

    Carries the standard :class:`~repro.errors.ReproError` context
    (``component`` is the netlist name) plus the offending ``net`` id,
    so supervisors can attribute structural failures without parsing
    the message.
    """

    def __init__(self, *args, net: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.net = net

    @property
    def context(self) -> Dict[str, object]:
        fields = dict(super().context)
        if self.net is not None:
            fields["net"] = self.net
        return fields


@dataclass(frozen=True)
class Gate:
    """One combinational cell instance."""

    cell: str
    inputs: Tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Dff:
    """One flip-flop: ``q`` follows ``d`` at each clock edge."""

    d: int
    q: int
    init: int = 0


class NetlistKey:
    """Content identity of a netlist's compiled kernels, hashed once.

    The kernels depend on the gates and on each flip-flop's D/Q nets,
    not on flip-flop init values, so netlists differing only in those
    share a key.  A netlist that finds an equal key already stored
    adopts that object as its ``content_key``, so later lookups match
    by identity instead of comparing gate by gate.
    """

    __slots__ = ("gates", "wiring", "_hash")

    def __init__(
        self, gates: Tuple[Gate, ...], wiring: Tuple[Tuple[int, int], ...]
    ) -> None:
        self.gates = gates
        self.wiring = wiring
        self._hash = hash((gates, wiring))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, NetlistKey):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.wiring == other.wiring
            and self.gates == other.gates
        )


@dataclass
class Netlist:
    """A synthesized block: gates, flip-flops, and port maps.

    :meth:`freeze` (run by :meth:`NetlistBuilder.build`, or by the first
    simulator on a hand-built netlist) checks the netlist and makes
    ``gates`` and ``dffs`` tuples; it cannot change after that.
    """

    name: str
    num_nets: int = 2  # const0 and const1
    gates: Sequence[Gate] = field(default_factory=list)
    dffs: Sequence[Dff] = field(default_factory=list)
    input_ports: Dict[str, List[int]] = field(default_factory=dict)
    output_ports: Dict[str, List[int]] = field(default_factory=dict)
    net_names: Dict[int, str] = field(default_factory=dict)
    #: Content key, taken by :meth:`freeze`.
    content_key: Optional[NetlistKey] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Every net's value after reset and settling (flip-flops at their
    #: init values), recorded by the first simulator that resets.
    #: Unlike ``content_key`` it depends on the init values, so it lives
    #: here and not in the compile cache.
    reset_values: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def gate_count(self) -> int:
        """Number of combinational cells."""
        return len(self.gates)

    @property
    def dff_count(self) -> int:
        """Number of flip-flops."""
        return len(self.dffs)

    def freeze(self) -> NetlistKey:
        """Check once, make ``gates``/``dffs`` tuples; returns the key."""
        key = self.content_key
        if key is None:
            self.check()
            self.gates = tuple(self.gates)
            self.dffs = tuple(self.dffs)
            key = self.content_key = NetlistKey(
                self.gates, tuple((dff.d, dff.q) for dff in self.dffs)
            )
        return key

    def check(self) -> None:
        """Verify structural sanity (one driver per net) and evaluation order.

        Failures raise :class:`NetlistError` with structured context:
        ``component`` names this netlist, ``net`` the offending net id.
        """
        # Every net has one driver: the compiled simulator keeps a driven
        # net's value in its driver's kernel.  Every driven net is an
        # index into the simulator's net-value list, and only driven nets
        # may be read, so checking the drivers' range covers every net.
        defined = {CONST0, CONST1}
        num_nets = self.num_nets

        def drive(net: int, kind: str, name: object) -> None:
            if net in defined:
                raise NetlistError(
                    "%s %r drives net %d, which already has a driver"
                    % (kind, name, net),
                    component=self.name, net=net,
                )
            if not 0 <= net < num_nets:
                raise NetlistError(
                    "%s %r drives net %d, outside [0, %d)"
                    % (kind, name, net, num_nets),
                    component=self.name, net=net,
                )
            defined.add(net)

        for name, nets in self.input_ports.items():
            for net in nets:
                drive(net, "input port", name)
        for index, dff in enumerate(self.dffs):
            drive(dff.q, "flip-flop", index)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in defined:
                    raise NetlistError(
                        "gate %r reads net %d before it is defined"
                        % (gate.cell, net),
                        component=self.name, net=net,
                    )
            drive(gate.output, "gate", gate.cell)
        for dff in self.dffs:
            if dff.d not in defined:
                raise NetlistError(
                    "flip-flop D net %d is undefined" % dff.d,
                    component=self.name, net=dff.d,
                )
        for name, nets in self.output_ports.items():
            for net in nets:
                if net not in defined:
                    raise NetlistError(
                        "output port %r uses undefined net %d" % (name, net),
                        component=self.name, net=net,
                    )

    def stats(self) -> Dict[str, int]:
        """Cell-count summary by type (plus totals)."""
        counts: Dict[str, int] = {}
        for gate in self.gates:
            counts[gate.cell] = counts.get(gate.cell, 0) + 1
        counts["DFF"] = self.dff_count
        counts["total"] = self.gate_count + self.dff_count
        return counts


class NetlistBuilder:
    """Builds a :class:`Netlist` with constant folding helpers."""

    def __init__(self, name: str) -> None:
        self.netlist = Netlist(name=name)

    # -- nets and ports ------------------------------------------------------

    def new_net(self, name: Optional[str] = None) -> int:
        """Allocate a fresh net id."""
        net = self.netlist.num_nets
        self.netlist.num_nets += 1
        if name:
            self.netlist.net_names[net] = name
        return net

    def input_bus(self, name: str, width: int) -> List[int]:
        """Declare a primary-input bus of ``width`` bits (LSB first)."""
        if name in self.netlist.input_ports:
            raise NetlistError("duplicate input port %r" % name)
        nets = [self.new_net("%s[%d]" % (name, i)) for i in range(width)]
        self.netlist.input_ports[name] = nets
        return nets

    def output_bus(self, name: str, nets: Sequence[int]) -> None:
        """Declare a primary-output bus driven by ``nets``."""
        if name in self.netlist.output_ports:
            raise NetlistError("duplicate output port %r" % name)
        self.netlist.output_ports[name] = list(nets)

    # -- single-bit gates ------------------------------------------------------

    def gate(self, cell: str, *inputs: int) -> int:
        """Instantiate ``cell`` over ``inputs``; returns the output net."""
        output = self.new_net()
        self.netlist.gates.append(Gate(cell, tuple(inputs), output))
        return output

    def not_(self, a: int) -> int:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        return self.gate("INV", a)

    def buf(self, a: int) -> int:
        return self.gate("BUF", a)

    def and_(self, a: int, b: int) -> int:
        if CONST0 in (a, b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        return self.gate("AND2", a, b)

    def or_(self, a: int, b: int) -> int:
        if CONST1 in (a, b):
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == b:
            return a
        return self.gate("OR2", a, b)

    def xor_(self, a: int, b: int) -> int:
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        if a == b:
            return CONST0
        return self.gate("XOR2", a, b)

    def xnor_(self, a: int, b: int) -> int:
        return self.not_(self.xor_(a, b))

    def nand_(self, a: int, b: int) -> int:
        return self.not_(self.and_(a, b))

    def nor_(self, a: int, b: int) -> int:
        return self.not_(self.or_(a, b))

    def mux(self, select: int, a: int, b: int) -> int:
        """2:1 mux — ``a`` when select is 0, ``b`` when select is 1."""
        if select == CONST0:
            return a
        if select == CONST1:
            return b
        if a == b:
            return a
        return self.gate("MUX2", select, a, b)

    def dff(self, d: int, init: int = 0, name: Optional[str] = None) -> int:
        """Flip-flop; returns the Q net."""
        q = self.new_net(name)
        self.netlist.dffs.append(Dff(d=d, q=q, init=init))
        return q

    def add_dff(self, d: int, q: int, init: int = 0) -> None:
        """Attach a flip-flop between existing nets.

        Used for state registers whose Q net must exist before the
        next-state logic that drives D can be built.
        """
        self.netlist.dffs.append(Dff(d=d, q=q, init=init))

    # -- trees ------------------------------------------------------------------

    def or_tree(self, nets: Sequence[int]) -> int:
        """Balanced OR over any number of nets."""
        nets = list(nets)
        if not nets:
            return CONST0
        while len(nets) > 1:
            paired = []
            for index in range(0, len(nets) - 1, 2):
                paired.append(self.or_(nets[index], nets[index + 1]))
            if len(nets) % 2:
                paired.append(nets[-1])
            nets = paired
        return nets[0]

    def and_tree(self, nets: Sequence[int]) -> int:
        """Balanced AND over any number of nets."""
        nets = list(nets)
        if not nets:
            return CONST1
        while len(nets) > 1:
            paired = []
            for index in range(0, len(nets) - 1, 2):
                paired.append(self.and_(nets[index], nets[index + 1]))
            if len(nets) % 2:
                paired.append(nets[-1])
            nets = paired
        return nets[0]

    # -- buses ------------------------------------------------------------------

    def const_bus(self, value: int, width: int) -> List[int]:
        """Bus of constant nets encoding ``value`` (two's complement)."""
        return [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)]

    def bus_not(self, a: Sequence[int]) -> List[int]:
        return [self.not_(bit) for bit in a]

    def bus_and(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [self.and_(x, y) for x, y in zip(a, b)]

    def bus_or(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [self.or_(x, y) for x, y in zip(a, b)]

    def bus_xor(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        return [self.xor_(x, y) for x, y in zip(a, b)]

    def bus_mux2(
        self, select: int, a: Sequence[int], b: Sequence[int]
    ) -> List[int]:
        """W-bit 2:1 mux."""
        return [self.mux(select, x, y) for x, y in zip(a, b)]

    def onehot_mux(self, choices: Sequence[Tuple[int, Sequence[int]]]) -> List[int]:
        """AND-OR one-hot selector over (select net, bus) pairs."""
        if not choices:
            raise NetlistError("one-hot mux needs at least one choice")
        width = len(choices[0][1])
        result = []
        for bit in range(width):
            terms = [self.and_(select, bus[bit]) for select, bus in choices]
            result.append(self.or_tree(terms))
        return result

    def ripple_add(
        self, a: Sequence[int], b: Sequence[int], carry_in: int = CONST0
    ) -> Tuple[List[int], int]:
        """Ripple-carry adder; returns (sum bus, carry out)."""
        if len(a) != len(b):
            raise NetlistError("adder operand widths differ")
        carry = carry_in
        total = []
        for x, y in zip(a, b):
            partial = self.xor_(x, y)
            total.append(self.xor_(partial, carry))
            carry = self.or_(self.and_(x, y), self.and_(partial, carry))
        return total, carry

    def ripple_sub(
        self, a: Sequence[int], b: Sequence[int]
    ) -> Tuple[List[int], int]:
        """Subtractor ``a - b``; carry-out 1 means no borrow (a >= b)."""
        diff, carry = self.ripple_add(a, self.bus_not(b), CONST1)
        return diff, carry

    def is_zero(self, a: Sequence[int]) -> int:
        """1 when every bit of ``a`` is 0."""
        return self.not_(self.or_tree(list(a)))

    def bus_eq(self, a: Sequence[int], b: Sequence[int]) -> int:
        """1 when the buses carry equal values."""
        return self.is_zero(self.bus_xor(a, b))

    def barrel_shift(
        self, a: Sequence[int], amount: Sequence[int], left: bool
    ) -> List[int]:
        """Logarithmic shifter (logical); shift amount uses the low bits
        of ``amount`` that are meaningful for the bus width."""
        width = len(a)
        stages = max(1, (width - 1).bit_length())
        current = list(a)
        for stage in range(stages):
            if stage >= len(amount):
                break
            shift = 1 << stage
            shifted = []
            for index in range(width):
                source = index - shift if left else index + shift
                if 0 <= source < width:
                    shifted.append(current[source])
                else:
                    shifted.append(CONST0)
            current = self.bus_mux2(amount[stage], current, shifted)
        return current

    def register(
        self,
        data: Sequence[int],
        enable: int,
        init: int = 0,
        name: Optional[str] = None,
    ) -> List[int]:
        """W-bit load-enable register; returns the Q bus.

        Implemented as ``q := mux(enable, q, data)`` into DFFs, the way
        synthesis maps enables onto feedback muxes.
        """
        width = len(data)
        q_nets = [
            self.new_net(None if name is None else "%s[%d]" % (name, i))
            for i in range(width)
        ]
        for index in range(width):
            d_net = self.mux(enable, q_nets[index], data[index])
            self.netlist.dffs.append(
                Dff(d=d_net, q=q_nets[index], init=(init >> index) & 1)
            )
        return q_nets

    def build(self) -> Netlist:
        """Check, freeze and return the netlist."""
        self.netlist.freeze()
        return self.netlist
