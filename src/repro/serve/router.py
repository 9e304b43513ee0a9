"""Minimal HTTP/1.1 primitives for the zero-dependency serving layer.

The service speaks just enough HTTP for its job: request line, headers,
an optional ``Content-Length`` body, one request per connection (every
response carries ``Connection: close``). No chunked encoding, no
keep-alive, no TLS — this is an in-process ranking service fronted by
real infrastructure in production, and keeping the parser small keeps
its failure modes enumerable:

- a client that disconnects mid-request surfaces as ``None`` from
  :func:`read_request` (the connection is simply closed);
- a client that dribbles bytes slower than the read timeout surfaces as
  ``TimeoutError`` (every ``await`` here is deadline-bounded — enforced
  by reprolint rule ROB003 on this package);
- a malformed or oversized request surfaces as :class:`HttpError`,
  which the app maps to a 4xx response.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "HttpError",
    "Request",
    "Response",
    "Router",
    "read_request",
    "read_response",
]

#: Upper bound on the request line + headers blob.
MAX_HEADER_BYTES = 32 * 1024
#: Upper bound on a request body (query specs are tiny; 1 MiB is ample).
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level failure that maps directly to a 4xx response."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


def _json_coerce(value: Any) -> Any:
    """JSON default hook: numpy scalars → python numbers, rest → str."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON; :class:`HttpError` 400 when invalid."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass
class Response:
    """One HTTP response, encodable to wire bytes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, payload: Any, status: int = 200, **headers: str
    ) -> "Response":
        """A JSON response (compact separators, numpy-tolerant)."""
        body = json.dumps(
            payload, separators=(",", ":"), default=_json_coerce
        ).encode("utf-8")
        return cls(
            status=status,
            body=body,
            content_type="application/json",
            headers=dict(headers),
        )

    @classmethod
    def text(
        cls,
        payload: str,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
    ) -> "Response":
        """A plain-text response."""
        return cls(
            status=status,
            body=payload.encode("utf-8"),
            content_type=content_type,
        )

    def encode(self) -> bytes:
        """Serialize status line, headers, and body to wire bytes."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + self.body


async def read_request(
    reader: asyncio.StreamReader,
    timeout: float,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Parse one request off ``reader``, bounding every wait.

    Returns ``None`` when the client disconnected before completing a
    request (mid-request disconnects are normal-path, not errors),
    raises ``TimeoutError`` when the client is slower than ``timeout``
    per read, and :class:`HttpError` for malformed or oversized input.
    """
    try:
        blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout
        )
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request headers too large") from exc
    except ConnectionError:
        return None
    if len(blob) > max_header_bytes:
        raise HttpError(431, "request headers too large")
    try:
        head = blob.decode("latin-1")
    except ValueError as exc:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head") from exc
    request_line, _, header_blob = head.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in header_blob.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from exc
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    if length > max_body_bytes:
        raise HttpError(413, "request body too large")
    body = b""
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout
            )
        except asyncio.IncompleteReadError:
            return None
        except ConnectionError:
            return None
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


async def read_response(
    reader: asyncio.StreamReader,
    timeout: float,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one HTTP/1.1 response: ``(status, headers, body)``.

    The client-side counterpart of :func:`read_request`, used by the
    test suite and benchmarks. It reads exactly ``Content-Length`` body
    bytes rather than waiting for EOF: when the engine's process
    backend forks MCMC chain workers while connections are open, the
    workers inherit duplicates of the socket and the FIN is delayed
    until they exit, so an EOF-based client would hang on a complete
    response. Raises ``ValueError`` on a malformed response and
    ``TimeoutError`` when the server is slower than ``timeout`` per
    read.
    """
    blob = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    head = blob.decode("latin-1")
    status_line, _, header_blob = head.partition("\r\n")
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in header_blob.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = b""
    if length > 0:
        body = await asyncio.wait_for(reader.readexactly(length), timeout)
    return status, headers, body


#: A request handler: one coroutine per route.
Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """An exact-path routing table with method dispatch."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[str, str], Handler] = {}

    def route(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``method path``."""
        self._routes[(method.upper(), path)] = handler

    def resolve(self, request: Request) -> Handler:
        """The handler for ``request``; :class:`HttpError` 404/405."""
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return handler
        if any(path == request.path for _, path in self._routes):
            raise HttpError(
                405, f"method {request.method} not allowed for {request.path}"
            )
        raise HttpError(404, f"no route for {request.path}")
