"""Common container for a ready-to-simulate system."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional

from repro.cfsm.events import Event
from repro.cfsm.fingerprint import cfsm_signature
from repro.cfsm.model import Network
from repro.master.master import MasterConfig


def workload_signature(stimuli: List[Event]) -> str:
    """Digest of a stimulus list (the workload half of the fingerprint)."""
    payload = tuple(
        (event.name, event.value, event.time, event.source)
        for event in stimuli
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass
class SystemBundle:
    """A network plus everything needed to co-simulate it.

    Attributes:
        network: the CFSM network.
        config: master configuration (bus parameters, RTOS, clocks).
        stimuli_factory: builds a fresh, deterministic stimulus list.
        shared_memory_image: optional initial shared-memory contents.
        description: one-line summary for reports.
    """

    network: Network
    config: MasterConfig
    stimuli_factory: Callable[[], List[Event]]
    shared_memory_image: Optional[Dict[int, int]] = None
    description: str = ""

    def stimuli(self) -> List[Event]:
        """A fresh stimulus list (safe to mutate/reuse)."""
        return self.stimuli_factory()

    @cached_property
    def signature(self) -> str:
        """What a run reads from the bundle besides its configuration.

        The ``repr`` of the structural signature and the HW/SW mapping
        of every CFSM, the shared-memory image and the stimulus digest,
        joined with ``", "``: the bundle half of the service's request
        fingerprint.  Computed on first use; a bundle is not changed
        after it is built (a shared one never is).
        """
        network = self.network
        names = sorted(network.cfsms)
        cfsms = tuple(cfsm_signature(network.cfsms[name]) for name in names)
        implementations = tuple(
            (name, str(network.implementation(name))) for name in names
        )
        memory = tuple(sorted((self.shared_memory_image or {}).items()))
        workload = workload_signature(self.stimuli())
        return ", ".join(
            repr(part) for part in (cfsms, implementations, memory, workload)
        )
