"""The paper's example systems, described as CFSM networks.

* :mod:`repro.systems.producer_consumer` — the motivating example of
  Figure 1: a software producer, a hardware timer, and a hardware
  consumer whose computation depends on *when* data arrives.
* :mod:`repro.systems.tcpip` — the TCP/IP network-interface-card
  checksum subsystem of Section 5 (Figure 5): packet ingest into shared
  memory, header scrubbing, and block-wise checksum over the shared
  bus, with the three bus masters whose priorities Figure 7 sweeps.
* :mod:`repro.systems.automotive` — the automotive (dashboard)
  controller mentioned in the abstract: wheel-pulse speedometer and
  odometer in hardware, belt alarm and fuel gauge in software, display
  refresh over the shared bus.
* :mod:`repro.systems.workloads` — seeded stimulus generators.

Every builder returns a :class:`SystemBundle` so examples, tests, and
benchmarks share one entry point.  A builder call always returns fresh
objects; :func:`shared_bundle` (and :func:`build_bundle`, which goes
through it) builds each spec once per process and hands every later
caller the same bundle, which is therefore read-only.
"""

from typing import Any, Callable, Dict, Hashable, Optional, Union

from repro.cfsm.fingerprint import seal
from repro.lru import LruCache
from repro.systems.bundle import SystemBundle
from repro.systems import producer_consumer, tcpip, automotive, workloads

__all__ = [
    "SystemBundle",
    "BUILDERS",
    "build_bundle",
    "builder_spec",
    "shared_bundle",
    "system_names",
    "producer_consumer",
    "tcpip",
    "automotive",
    "workloads",
]

#: The bundled example systems as picklable builder specs
#: (``"module:callable"``, kwargs).  One registry feeds the CLI, the
#: parallel pool's worker-side reconstruction, and the co-estimation
#: service, so a system name means the same design everywhere.
BUILDERS = {
    "fig1": ("repro.systems.producer_consumer:build_system",
             {"num_packets": 4}),
    "tcpip": ("repro.systems.tcpip:build_system", {"dma_block_words": 16}),
    "tcpip-out": ("repro.systems.tcpip:build_system",
                  {"dma_block_words": 16, "include_outgoing": True,
                   "num_outgoing": 2}),
    "automotive": ("repro.systems.automotive:build_system", {}),
}


def system_names():
    """The bundled system names, sorted."""
    return sorted(BUILDERS)


def builder_spec(name):
    """The ``(builder, kwargs)`` spec of a bundled system.

    Raises ``KeyError`` with the valid choices for unknown names.
    """
    try:
        return BUILDERS[name]
    except KeyError:
        raise KeyError(
            "unknown system %r (choose from %s)"
            % (name, ", ".join(system_names()))
        ) from None


def build_bundle(name) -> SystemBundle:
    """The bundled system ``name`` (see :data:`BUILDERS`), shared
    read-only through :func:`shared_bundle`."""
    builder, kwargs = builder_spec(name)
    return shared_bundle(builder, kwargs)


#: Built bundles by builder spec and frozen kwargs.  A Fig. 7 sweep
#: needs one per DMA size and the service one per bundled system;
#: :func:`repro.lru.clear_process_caches` empties it.
_BUNDLE_MEMO: LruCache[SystemBundle] = LruCache(capacity=32)

_PLAIN_SCALARS = (str, int, float, bool, type(None))


def _freeze(value: Any) -> Hashable:
    """Type-tagged hashable copy of a plain kwarg value.

    The tags keep ``True`` apart from ``1`` and a list apart from a
    tuple; anything but str/int/float/bool/None/list/tuple/dict raises
    ``TypeError``, so an ``id``-based ``repr`` never reaches a key.
    """
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return (kind.__name__, value)
    if kind is list or kind is tuple:
        return (kind.__name__, tuple(_freeze(item) for item in value))
    if kind is dict:
        return ("dict", tuple(sorted(
            (_freeze(key), _freeze(item)) for key, item in value.items()
        )))
    raise TypeError("not a plain kwarg value: %s" % kind.__name__)


def _memo_key(builder: Union[str, Callable],
              kwargs: Dict[str, Any]) -> Optional[Hashable]:
    """The memo key of a build, or ``None`` when it must build fresh."""
    if not isinstance(builder, str):
        return None
    try:
        return (builder, _freeze(kwargs))
    except TypeError:  # a non-plain value, or dict keys that do not sort
        return None


def shared_bundle(builder: Union[str, Callable],
                  kwargs: Optional[Dict[str, Any]] = None) -> SystemBundle:
    """``builder(**kwargs)``, built once per process and then shared.

    ``builder`` is a ``"module:callable"`` spec.  Every caller with an
    equal spec and equal kwargs gets the same bundle, so nothing may
    mutate it: derive a changed configuration with
    ``dataclasses.replace``.  Callable builders and kwargs holding
    anything but plain values build fresh on every call.
    """
    from repro.parallel.jobs import resolve_callable

    kwargs = dict(kwargs or {})
    key = _memo_key(builder, kwargs)
    if key is None:
        return resolve_callable(builder)(**kwargs)
    bundle = _BUNDLE_MEMO.get(key)
    if bundle is None:
        bundle = resolve_callable(builder)(**kwargs)
        for cfsm in bundle.network.cfsms.values():
            seal(cfsm)
        _BUNDLE_MEMO.put(key, bundle)
    return bundle
