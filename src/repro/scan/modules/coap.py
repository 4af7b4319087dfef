"""CoAP scan module: resource discovery via ``/.well-known/core``."""

from __future__ import annotations

import itertools

from repro.net.simnet import Network
from repro.proto.coap import (
    CONTENT_205,
    CoapDecodeError,
    CoapMessage,
    get_request,
    parse_link_format,
)
from repro.scan.result import PROTOCOL_PORTS, CoapGrab

_message_ids = itertools.count(0x1000)


def refused_coap(address: int, time: float, port: int) -> CoapGrab:
    """The grab of a CoAP probe nobody answered (the grab always
    carries the default CoAP port)."""
    return CoapGrab(address=address, time=time, ok=False)


def scan_coap(network: Network, source: int, target: int) -> CoapGrab:
    """Send a confirmable GET for the resource directory."""
    port = PROTOCOL_PORTS["coap"]
    now = network.clock.now()
    message_id = next(_message_ids) & 0xFFFF
    request = get_request("/.well-known/core", message_id=message_id)
    payload = network.udp_request(source, target, port, request.encode())
    if payload is None:
        return refused_coap(target, now, port)
    try:
        response = CoapMessage.decode(payload)
    except CoapDecodeError:
        return CoapGrab(address=target, time=now, ok=False)
    if response.message_id != message_id or response.token != request.token:
        return CoapGrab(address=target, time=now, ok=False)
    if response.code != CONTENT_205:
        # The endpoint speaks CoAP but hides its directory; still a find.
        return CoapGrab(address=target, time=now, ok=True, resources=())
    resources = tuple(parse_link_format(response.payload))
    return CoapGrab(address=target, time=now, ok=True, resources=resources)
