"""Waveform and report export: the paper's "visual display" role.

The paper's tool "can display energy and power waveforms for the
various parts of the system".  This module renders the master's energy
accounting into standard interchange formats:

* :func:`export_power_csv` — time-binned per-component power series,
  one column per component, loadable by any plotting tool;
* :func:`export_power_vcd` — a Value Change Dump whose signals are the
  per-component power levels (in microwatts), viewable in GTKWave and
  friends next to functional waveforms.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

from repro.master.tracing import EnergyAccountant


def _components(accountant: EnergyAccountant,
                include: Optional[Sequence[str]] = None) -> List[str]:
    names = sorted(accountant.by_component)
    if include is not None:
        wanted = set(include)
        names = [name for name in names if name in wanted]
    return names


def export_power_csv(
    accountant: EnergyAccountant,
    bin_ns: float,
    components: Optional[Sequence[str]] = None,
) -> str:
    """Per-component average power per time bin, as CSV text.

    The first column is the bin start time in nanoseconds; remaining
    columns are per-component power in watts.
    """
    names = _components(accountant, components)
    waveforms = {
        name: accountant.power_waveform(bin_ns, component=name)
        for name in names
    }
    bins = max((len(w) for w in waveforms.values()), default=0)
    out = io.StringIO()
    out.write("time_ns," + ",".join(names) + "\n")
    for index in range(bins):
        row = ["%g" % (index * bin_ns)]
        for name in names:
            waveform = waveforms[name]
            value = waveform[index][1] if index < len(waveform) else 0.0
            row.append("%.6g" % value)
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _vcd_identifier(index: int) -> str:
    """Short printable VCD identifier codes (!, ", #, ...)."""
    alphabet = [chr(code) for code in range(33, 127)]
    if index < len(alphabet):
        return alphabet[index]
    first, second = divmod(index, len(alphabet))
    return alphabet[first - 1] + alphabet[second]


def export_power_vcd(
    accountant: EnergyAccountant,
    bin_ns: float,
    components: Optional[Sequence[str]] = None,
    module_name: str = "power",
) -> str:
    """Per-component power as a VCD file (values in microwatts).

    Each component becomes a 32-bit ``integer`` signal whose value is
    the average power of the current bin in µW, so the waveform viewer
    shows a stepped power trace aligned with simulation time (the VCD
    timescale is 1 ns).
    """
    names = _components(accountant, components)
    identifiers = {name: _vcd_identifier(i) for i, name in enumerate(names)}
    waveforms = {
        name: accountant.power_waveform(bin_ns, component=name)
        for name in names
    }
    bins = max((len(w) for w in waveforms.values()), default=0)

    out = io.StringIO()
    out.write("$date repro power co-estimation $end\n")
    out.write("$version repro 1.0 $end\n")
    out.write("$timescale 1ns $end\n")
    out.write("$scope module %s $end\n" % module_name)
    for name in names:
        out.write("$var integer 32 %s %s_uW $end\n"
                  % (identifiers[name], name.replace(" ", "_")))
    out.write("$upscope $end\n$enddefinitions $end\n")

    previous: Dict[str, int] = {}
    for index in range(bins):
        time_ns = int(index * bin_ns)
        changes = []
        for name in names:
            waveform = waveforms[name]
            watts = waveform[index][1] if index < len(waveform) else 0.0
            microwatts = int(round(watts * 1e6))
            if previous.get(name) != microwatts:
                changes.append("b%s %s"
                               % (format(microwatts, "b"), identifiers[name]))
                previous[name] = microwatts
        if changes or index == 0:
            out.write("#%d\n" % time_ns)
            for change in changes:
                out.write(change + "\n")
    out.write("#%d\n" % int(bins * bin_ns))
    return out.getvalue()
