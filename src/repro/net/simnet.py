"""An event-driven simulated IPv6 internet.

Hosts register under integer IPv6 addresses and bind UDP handlers or TCP
services on ports.  The network delivers whole messages synchronously —
a deliberate simplification that keeps million-address experiments fast
while preserving the observable behaviour every scan module depends on:

* a UDP request either yields a response datagram, silence (no handler
  or handler declined), or loss;
* a TCP connect either succeeds (yielding a duplex, request/response
  :class:`Stream`) or is refused/unanswered;
* every delivery attempt is offered to registered taps, so passive
  observers (the telescope, packet counters) see traffic they do not
  terminate.

Unreachability is first-class: a host can be registered with
``reachable=False`` (e.g. behind a CPE firewall), which models the
paper's observation that NTP-sourced end-user addresses have a very low
scan hit rate (~0.4 permille) — clients *send* NTP packets but rarely
*accept* inbound connections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional, Protocol

from repro.net.clock import VirtualClock
from repro.net.packet import Datagram, PacketRecord, Transport

#: A UDP handler consumes a datagram and optionally returns the response
#: payload (which the network sends back to the source).  A handler may
#: also return a *sequence* of payloads — one response datagram each, in
#: order — which is how fragmented protocols (NTP mode-6 windows, mode-7
#: monlist trains) amplify a single request into a packet burst.
UdpHandler = Callable[[Datagram], "UdpResponse"]

UdpResponse = Optional[object]  # bytes | Sequence[bytes] | None

#: A tap observes every delivery attempt.
Tap = Callable[[PacketRecord], None]


class TcpSession(Protocol):
    """Server side of one TCP connection.

    The engine drives the session synchronously: ``greeting`` is what
    the server emits immediately after accept (SSH banners, AMQP needs
    none), ``on_data`` consumes one client write and returns the
    server's response bytes (or ``None`` for silence).  Setting
    ``closed`` ends the connection.
    """

    closed: bool

    def greeting(self) -> bytes: ...

    def on_data(self, data: bytes) -> Optional[bytes]: ...


class TcpService(Protocol):
    """Factory producing one :class:`TcpSession` per accepted connection."""

    def accept(self, peer: int, peer_port: int) -> TcpSession: ...


class Stream:
    """Client handle on an established simulated TCP connection."""

    def __init__(self, network: "Network", session: TcpSession,
                 local: int, local_port: int, remote: int, remote_port: int) -> None:
        self._network = network
        self._session = session
        self.local = local
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        self._greeting_read = False

    @property
    def closed(self) -> bool:
        return self._session.closed

    def read_greeting(self) -> bytes:
        """Bytes the server sent on accept (empty for most protocols)."""
        if self._greeting_read:
            return b""
        self._greeting_read = True
        return self._session.greeting()

    def write(self, data: bytes) -> Optional[bytes]:
        """Send bytes; returns the server's synchronous response."""
        if self._session.closed:
            raise ConnectionResetError("stream is closed")
        self._network._record(
            Transport.TCP, self.local, self.local_port,
            self.remote, self.remote_port, len(data),
        )
        response = self._session.on_data(data)
        if response is not None:
            self._network._record(
                Transport.TCP, self.remote, self.remote_port,
                self.local, self.local_port, len(response),
            )
        return response

    def close(self) -> None:
        self._session.closed = True


@dataclass
class Host:
    """One addressable node: its services and reachability."""

    address: int
    reachable: bool = True
    udp_handlers: Dict[int, UdpHandler] = field(default_factory=dict)
    tcp_services: Dict[int, TcpService] = field(default_factory=dict)

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        if port in self.udp_handlers:
            raise ValueError(f"UDP port {port} already bound on {self.address:#x}")
        self.udp_handlers[port] = handler

    def bind_tcp(self, port: int, service: TcpService) -> None:
        if port in self.tcp_services:
            raise ValueError(f"TCP port {port} already bound on {self.address:#x}")
        self.tcp_services[port] = service


class Network:
    """The simulated internet fabric.

    Parameters
    ----------
    clock:
        Simulated time source stamped onto every tap record.
    loss_rate:
        Probability that any single delivery silently vanishes, drawn
        from ``rng``.  Zero by default so unit tests are exact.
    """

    def __init__(self, clock: Optional[VirtualClock] = None,
                 loss_rate: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.clock = clock or VirtualClock()
        self.loss_rate = loss_rate
        self._rng = rng or random.Random(0)
        self._hosts: Dict[int, Host] = {}
        self._wildcards: Dict[int, Host] = {}
        self._taps: List[Tap] = []
        self._ephemeral = 49152

    # -- topology -----------------------------------------------------

    def add_host(self, address: int, reachable: bool = True) -> Host:
        """Register a host; re-adding an address returns the existing host."""
        host = self._hosts.get(address)
        if host is None:
            host = Host(address=address, reachable=reachable)
            self._hosts[address] = host
        return host

    def remove_host(self, address: int) -> None:
        """Drop a host (e.g. its dynamic prefix rotated away)."""
        self._hosts.pop(address, None)

    def host(self, address: int) -> Optional[Host]:
        host = self._hosts.get(address)
        if host is not None:
            return host
        return self._wildcards.get(address >> 64)

    def add_wildcard_host(self, prefix64: int) -> Host:
        """Register a host answering for *every* address of a /64.

        This models aliased prefixes: load balancers and CDN edges that
        accept connections on any address of their subnet — the regions
        that inflate hitlists and give target generators their easy
        hits (Gasser et al., "Clusters in the expanse").
        """
        key = prefix64 >> 64
        host = self._wildcards.get(key)
        if host is None:
            host = Host(address=prefix64)
            self._wildcards[key] = host
        return host

    def move_host(self, old_address: int, new_address: int) -> Host:
        """Re-home a host under a new address, keeping its services.

        This models dynamic-prefix churn: the same physical device keeps
        its services and identity but becomes reachable at a different
        IPv6 address.
        """
        host = self._hosts.pop(old_address, None)
        if host is None:
            raise KeyError(f"no host at {old_address:#x}")
        host.address = new_address
        self._hosts[new_address] = host
        return host

    def add_tap(self, tap: Tap) -> None:
        """Attach a passive observer to every delivery attempt."""
        self._taps.append(tap)

    def ephemeral_port(self) -> int:
        """Allocate a client-side port (wraps within the dynamic range)."""
        port = self._ephemeral
        self._ephemeral += 1
        if self._ephemeral > 65535:
            self._ephemeral = 49152
        return port

    def skip_ephemeral_ports(self, count: int) -> None:
        """Take ``count`` client-side ports without returning them: the
        next port is then the one ``count`` calls of
        :meth:`ephemeral_port` would leave, with the same wrap from
        65535 to 49152 (the range holds 16,384 ports)."""
        self._ephemeral = 49152 + (self._ephemeral - 49152 + count) % 16384

    def ports_to_deliver(self, host: Optional[Host]
                         ) -> Optional[AbstractSet[int]]:
        """The ports whose attempts on ``host`` must really be delivered;
        None when every attempt must be.

        ``host`` is :meth:`host` of the target.  An attempt on any other
        port is refused, and may be settled without delivering it,
        because nothing could tell the difference.  That holds only
        with no tap attached (no record to offer) and ``loss_rate ==
        0`` (no loss draw to consume); otherwise the answer is None.  A
        missing or unreachable host refuses every port (an empty set);
        a reachable one accepts the ports bound on either transport, so
        a port bound on the other one takes the full path.  A settled
        attempt must still take the ephemeral port :meth:`tcp_connect`
        or :meth:`udp_request` would have (:meth:`ephemeral_port`, or
        :meth:`skip_ephemeral_ports` for several at once), because
        servers see client ports, so later ports do not shift.
        """
        if self._taps or self.loss_rate > 0:
            return None
        if host is None or not host.reachable:
            return frozenset()
        return host.tcp_services.keys() | host.udp_handlers.keys()

    # -- delivery -----------------------------------------------------

    def _lost(self) -> bool:
        return self.loss_rate > 0 and self._rng.random() < self.loss_rate

    def _record(self, transport: Transport, src: int, src_port: int,
                dst: int, dst_port: int, size: int,
                syn: bool = False, delivered: bool = True) -> None:
        if not self._taps:
            return
        record = PacketRecord(
            time=self.clock.now(), transport=transport,
            src=src, src_port=src_port, dst=dst, dst_port=dst_port,
            size=size, syn=syn, delivered=delivered,
        )
        for tap in self._taps:
            tap(record)

    def _deliver_datagram(self, datagram: Datagram) -> List[Datagram]:
        """Deliver one UDP datagram; returns every response datagram.

        Handlers returning a single ``bytes`` payload produce at most
        one response (the seed contract); handlers returning a sequence
        produce one response datagram per payload, each with its own
        loss draw and tap record — a passive observer sees the whole
        amplified train, not just the first fragment.
        """
        lost = self._lost()
        self._record(
            Transport.UDP, datagram.src, datagram.src_port,
            datagram.dst, datagram.dst_port, len(datagram.payload),
            delivered=not lost,
        )
        if lost:
            return []
        host = self.host(datagram.dst)
        if host is None or not host.reachable:
            return []
        handler = host.udp_handlers.get(datagram.dst_port)
        if handler is None:
            return []
        payload = handler(datagram)
        if payload is None:
            return []
        payloads = ([payload] if isinstance(payload, (bytes, bytearray))
                    else list(payload))
        responses: List[Datagram] = []
        for part in payloads:
            response = datagram.reply(bytes(part))
            if self._lost():
                self._record(
                    Transport.UDP, response.src, response.src_port,
                    response.dst, response.dst_port, len(response.payload),
                    delivered=False,
                )
                continue
            self._record(
                Transport.UDP, response.src, response.src_port,
                response.dst, response.dst_port, len(response.payload),
            )
            responses.append(response)
        return responses

    def send_datagram(self, datagram: Datagram) -> Optional[Datagram]:
        """Deliver a UDP datagram; returns the first response datagram.

        The single-response face of :meth:`_deliver_datagram` — the
        contract every mode-3/4 exchange uses.  Multi-packet consumers
        (the NTP control-plane scan) use :meth:`udp_request_multi`.
        """
        responses = self._deliver_datagram(datagram)
        return responses[0] if responses else None

    def udp_request(self, src: int, dst: int, dst_port: int,
                    payload: bytes) -> Optional[bytes]:
        """Convenience: one UDP round trip, returning the response payload."""
        datagram = Datagram(
            src=src, src_port=self.ephemeral_port(),
            dst=dst, dst_port=dst_port, payload=payload,
        )
        response = self.send_datagram(datagram)
        return response.payload if response else None

    def udp_request_multi(self, src: int, dst: int, dst_port: int,
                          payload: bytes) -> List[bytes]:
        """One request, every response payload (fragmented protocols).

        Returns the full response train in send order — empty on
        silence, loss, or an unreachable host.  Lost fragments are
        dropped individually (each has its own loss draw), exactly the
        failure mode a real monlist train exhibits.
        """
        datagram = Datagram(
            src=src, src_port=self.ephemeral_port(),
            dst=dst, dst_port=dst_port, payload=payload,
        )
        return [response.payload
                for response in self._deliver_datagram(datagram)]

    def tcp_connect(self, src: int, dst: int,
                    dst_port: int) -> Optional[Stream]:
        """Attempt a TCP connection; ``None`` models refusal/timeout."""
        port = self.ephemeral_port()
        lost = self._lost()
        self._record(Transport.TCP, src, port, dst, dst_port, 0,
                     syn=True, delivered=not lost)
        if lost:
            return None
        host = self.host(dst)
        if host is None or not host.reachable:
            return None
        service = host.tcp_services.get(dst_port)
        if service is None:
            return None
        session = service.accept(src, port)
        return Stream(self, session, src, port, dst, dst_port)
