"""SSH scan module: banner grab + host-key retrieval."""

from __future__ import annotations

from repro.net.simnet import Network
from repro.proto.ssh import (
    SshDecodeError,
    SshIdentification,
    decode_keyreply,
)
from repro.scan.result import SshGrab

#: The identification string our scanner presents (identifies us as a
#: research scan, per the paper's ethics appendix).
SCANNER_ID = SshIdentification(protocol="2.0", software="ReproScan_1.0",
                               comment="research-scan")


def refused_ssh(address: int, time: float, port: int) -> SshGrab:
    """The grab of an SSH probe whose connection was refused."""
    return SshGrab(address=address, time=time, ok=False)


def scan_ssh(network: Network, source: int, target: int,
             port: int = 22) -> SshGrab:
    """Grab the server banner and host key."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_ssh(target, now, port)
    greeting = stream.read_greeting()
    try:
        identification = SshIdentification.decode(greeting)
    except SshDecodeError:
        return SshGrab(address=target, time=now, ok=False)
    reply = stream.write(SCANNER_ID.encode())
    key_algorithm = None
    key_fingerprint = None
    if reply is not None:
        try:
            key = decode_keyreply(reply)
        except SshDecodeError:
            key = None
        if key is not None:
            key_algorithm = key.algorithm
            key_fingerprint = key.fingerprint
    return SshGrab(
        address=target, time=now, ok=True,
        banner=identification.banner,
        software=identification.software,
        comment=identification.comment,
        key_algorithm=key_algorithm,
        key_fingerprint=key_fingerprint,
    )
