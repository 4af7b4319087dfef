"""Minimal HTTP/1.1: request/response codec and a page-serving session.

The scanner issues ``GET /`` requests and the analyses consume exactly
three things from the response: the status code, the HTML ``<title>``,
and (for HTTPS) the certificate obtained beforehand.  The codec is
nevertheless a real parser — request line, headers, body — so malformed
traffic is rejected the way a real server would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional

_REQUEST_LINE = re.compile(rb"^([A-Z]+) (\S+) HTTP/1\.[01]$")
_TITLE = re.compile(r"<title>(.*?)</title>", re.IGNORECASE | re.DOTALL)

#: Reason phrases for the status codes the simulation emits.
REASONS = {
    200: "OK", 301: "Moved Permanently", 302: "Found", 400: "Bad Request",
    401: "Unauthorized", 403: "Forbidden", 404: "Not Found",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpDecodeError(ValueError):
    """Raised when bytes are not a valid HTTP message."""


@dataclass(frozen=True)
class HttpRequest:
    """A parsed client request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1"]
        lines += [f"{name}: {value}" for name, value in self.headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    @classmethod
    def decode(cls, data: bytes) -> "HttpRequest":
        head, _, _ = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        match = _REQUEST_LINE.match(lines[0])
        if not match:
            raise HttpDecodeError(f"bad request line: {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(b": ")
            if not sep:
                raise HttpDecodeError(f"bad header line: {line!r}")
            headers[name.decode("latin-1").title()] = value.decode("latin-1")
        return cls(
            method=match.group(1).decode("ascii"),
            path=match.group(2).decode("latin-1"),
            headers=headers,
        )


@dataclass(frozen=True)
class HttpResponse:
    """A parsed (or to-be-sent) server response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HttpResponse":
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        parts = lines[0].split(b" ", 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise HttpDecodeError(f"bad status line: {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpDecodeError(f"bad status code: {parts[1]!r}") from exc
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(b": ")
            if sep:
                headers[name.decode("latin-1").title()] = value.decode("latin-1")
        return cls(status=status, headers=headers, body=body)

    @property
    def title(self) -> Optional[str]:
        """The HTML ``<title>`` of the body, if any."""
        match = _TITLE.search(self.body.decode("utf-8", "replace"))
        if not match:
            return None
        return " ".join(match.group(1).split())


def html_page(title: str, body: str = "") -> bytes:
    """Render a tiny HTML document with the given title."""
    return (
        f"<!DOCTYPE html><html><head><title>{title}</title></head>"
        f"<body>{body}</body></html>"
    ).encode("utf-8")


class HttpServerSession:
    """A TCP session serving a fixed page (device web interfaces).

    Parameters mirror what the device models need: a page title, a
    status code (CDN error fronts answer 200-with-empty-title or
    404-style pages), optional server header, and optional host-based
    virtual hosting (a request without ``Host`` gets a 404 page titled
    :attr:`not_found_title`).
    """

    not_found_title = "Unknown Domain"

    def __init__(self, title: Optional[str], *, status: int = 200,
                 server: str = "sim-httpd/1.0",
                 body_extra: str = "",
                 requires_host: bool = False) -> None:
        self.title = title
        self.status = status
        self.server = server
        self.body_extra = body_extra
        self.requires_host = requires_host
        self.closed = False

    def greeting(self) -> bytes:
        return b""

    def on_data(self, data: bytes) -> Optional[bytes]:
        try:
            request = HttpRequest.decode(data)
        except HttpDecodeError:
            self.closed = True
            return HttpResponse(status=400, body=b"").encode()
        if request.method not in ("GET", "HEAD"):
            return HttpResponse(status=405 if False else 400).encode()
        status, title = self.status, self.title
        if self.requires_host and "Host" not in request.headers:
            status, title = 404, self.not_found_title
        body = b"" if title is None else html_page(title, self.body_extra)
        if request.method == "HEAD":
            body = b""
        response = HttpResponse(
            status=status,
            headers={"Server": self.server, "Content-Type": "text/html"},
            body=body,
        )
        self.closed = True  # connection: close semantics
        return response.encode()


@dataclass(frozen=True)
class HttpSessionFactory:
    """Factory producing :class:`HttpServerSession` instances.

    Device models bind TCP services as *factory objects* rather than
    closures: a factory captures only the session's configuration, so
    equal configurations compare equal.
    """

    title: Optional[str]
    status: int = 200
    server: str = "sim-httpd/1.0"
    body_extra: str = ""
    requires_host: bool = False

    def __call__(self) -> HttpServerSession:
        return HttpServerSession(self.title, status=self.status,
                                 server=self.server,
                                 body_extra=self.body_extra,
                                 requires_host=self.requires_host)
