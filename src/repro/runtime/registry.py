"""The pluggable probe registry (replacing the engine's fixed tuple).

The seed engine hard-coded the paper's eight protocol probes in a
module-level ``_MODULES`` tuple — every campaign scanned everything.
Real scanning campaigns vary their port profiles (Richter & Gasser's
telescope work shows wildly different per-actor profiles), so the
registry makes the probe set a *campaign parameter*:

* :func:`default_registry` reproduces the paper's probe set, in the
  paper's order (HTTP, HTTPS, SSH, MQTT, MQTTS, AMQP, AMQPS, CoAP);
* ``registry.subset("ssh", "coap")`` derives a narrowed campaign;
* ``registry.register(...)`` adds a new protocol module without
  touching engine internals — the grab only needs ``address``, ``time``,
  ``ok`` and ``protocol`` attributes for :class:`ScanResults` to route
  and aggregate it.

A spec may also carry its module's *refused* grab builder: the grab the
probe returns when its connection is refused or its request goes
unanswered.  With it, the executor settles a probe the network would
refuse without running the module (see
:meth:`repro.net.simnet.Network.ports_to_deliver`); without it, the
probe always runs.  Either way a refused probe adds no grab to a
result set.

Probe order is insertion order and therefore deterministic, which the
golden-value pipeline tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.net.simnet import Network
from repro.scan.modules.amqp import (
    refused_amqp,
    refused_amqps,
    scan_amqp,
    scan_amqps,
)
from repro.scan.modules.coap import refused_coap, scan_coap
from repro.scan.modules.http import refused_http, scan_http, scan_https
from repro.scan.modules.mqtt import (
    refused_mqtt,
    refused_mqtts,
    scan_mqtt,
    scan_mqtts,
)
from repro.scan.modules.ssh import refused_ssh, scan_ssh
from repro.scan.result import PROTOCOL_PORTS, Grab

#: A probe: (network, source, target) → one grab record.
Probe = Callable[[Network, int, int], Grab]

#: A refused grab builder: (address, time, port) → the grab its probe
#: returns when the connection is refused or the request unanswered.
Refusal = Callable[[int, float, int], Grab]


@dataclass(frozen=True)
class ProbeSpec:
    """One registered protocol module."""

    name: str
    probe: Probe
    port: int
    #: The probe's own refused grab.  Only for a probe that, when
    #: refused, makes exactly one connection attempt or request, to
    #: ``port``, and returns ``refused(target, now, port)``.  A settled
    #: probe builds no grab; with a store attached, its WAL record is
    #: rendered from one sample of this grab, in one group with the
    #: records of the settled probes next to it.  Its grabs may
    #: therefore differ only in address and time: the store raises
    #: ``ValueError`` at the first probe if a second sample differs
    #: elsewhere (see
    #: :meth:`repro.store.writer.StoreWriter.refused_sink`).
    refused: Optional[Refusal] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("probe name must be non-empty")


class ProbeRegistry:
    """Ordered, named collection of probe modules."""

    def __init__(self, specs: Iterable[ProbeSpec] = ()) -> None:
        self._specs: Dict[str, ProbeSpec] = {}
        for spec in specs:
            self.add(spec)

    # -- mutation ---------------------------------------------------------

    def add(self, spec: ProbeSpec) -> ProbeSpec:
        """Register a spec object; duplicate names are an error."""
        if spec.name in self._specs:
            raise ValueError(f"probe {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def register(self, name: str, probe: Probe, port: int,
                 refused: Optional[Refusal] = None) -> ProbeSpec:
        """Register a new protocol module by parts."""
        return self.add(ProbeSpec(name=name, probe=probe, port=port,
                                  refused=refused))

    # -- derivation -------------------------------------------------------

    def subset(self, *names: str) -> "ProbeRegistry":
        """A new registry with only ``names``, in the order given."""
        return ProbeRegistry(self.get(name) for name in names)

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> ProbeSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"no probe named {name!r}") from None

    def __iter__(self) -> Iterator[ProbeSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs


def default_registry() -> ProbeRegistry:
    """The paper's probe set, in the paper's probe order."""
    registry = ProbeRegistry()
    for name, probe, refused in (
        ("http", scan_http, refused_http),
        ("https", scan_https, refused_http),
        ("ssh", scan_ssh, refused_ssh),
        ("mqtt", scan_mqtt, refused_mqtt),
        ("mqtts", scan_mqtts, refused_mqtts),
        ("amqp", scan_amqp, refused_amqp),
        ("amqps", scan_amqps, refused_amqps),
        ("coap", scan_coap, refused_coap),
    ):
        registry.register(name, probe, PROTOCOL_PORTS[name], refused=refused)
    return registry
