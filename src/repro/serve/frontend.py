"""The HTTP front end behind ``repro serve``: stdlib sockets only.

One thread per connection (``socketserver.ThreadingMixIn``) and one
request per connection.  The handler reads the request line and the
headers itself, builds the WSGI environ keys the
:class:`~repro.serve.app.QAService` callable reads, calls it, and
writes the status line, headers and body in one ``sendall`` before the
server closes the connection (``Connection: close``).

It keeps the limits and statuses of the stdlib ``http.server`` parser
it replaces:

* 414 for a request line over 64 KiB;
* 400 for a malformed request line or HTTP version;
* 505 for HTTP/2 and later;
* 431 for a header line over 64 KiB, or for 100 header lines or more
  (``http.client`` counts the terminating blank line too);
* an HTTP/1.1 request with ``Expect: 100-continue`` gets an interim
  ``100 Continue`` before the app reads its body;
* ``PATH_INFO`` is percent-decoded (ISO-8859-1) with ``QUERY_STRING``
  split off, and a leading ``//`` is reduced to one slash;
* a two-word ``GET`` request line is HTTP/0.9: the answer is the bare
  body.

It adds two refusals of its own:

* 408 when a connection sends no byte of its request head for
  :data:`READ_TIMEOUT_S` seconds (a client that connects and sends
  nothing, or stops mid-headers, would otherwise hold its thread);
* 411 for a request with a ``Transfer-Encoding`` header: request
  bodies are read by ``Content-Length`` only, and a chunked body is
  not decoded.

The front end answers those refusals itself, in the service's JSON
error shape (:func:`repro.serve.contract.error_body`); the app never
sees them, so ``svqa_http_requests_total`` does not count them.  The
same read timeout holds while the app reads the body; the app answers
a stalled body with 408.
"""

from __future__ import annotations

import socket
import socketserver
import time
from collections.abc import Callable, Iterable
from typing import BinaryIO, cast
from urllib.parse import unquote

from repro.serve.contract import encode_json, error_body

#: the longest request or header line, as ``http.client`` allows
MAX_LINE = 65536
#: header lines, the terminating blank line included, beyond which the
#: request is refused with 431 (``http.client``'s count)
MAX_HEADERS = 100
#: seconds a connection may go without sending a byte of its request
#: before the server answers 408 and closes it
READ_TIMEOUT_S = 10.0

WSGIApp = Callable[[dict[str, object], Callable[..., object]],
                   Iterable[bytes]]

_REFUSALS = {
    400: "400 Bad Request",
    408: "408 Request Timeout",
    411: "411 Length Required",
    414: "414 URI Too Long",
    431: "431 Request Header Fields Too Large",
    505: "505 HTTP Version Not Supported",
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _Refused(Exception):
    """A request the front end answers itself with an error status."""

    def __init__(self, status: int, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.body = encode_json(error_body(status, reason, detail))

    def response(self) -> bytes:
        """The refusal framed for the wire."""
        return _response(_REFUSALS[self.status],
                         [("Content-Type", "application/json"),
                          ("Content-Length", str(len(self.body)))],
                         self.body)


def _http_date() -> str:
    """The current time as an IMF-fixdate (locale-independent)."""
    t = time.gmtime()
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} "
            f"{_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _response(status: str, headers: list[tuple[str, str]],
              body: bytes) -> bytes:
    """Status line, headers and body as one buffer."""
    lines = [f"HTTP/1.1 {status}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append(f"Date: {_http_date()}")
    lines.append("Connection: close")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("iso-8859-1") + body


def _parse_version(word: str) -> tuple[int, int]:
    """``HTTP/x.y`` -> ``(x, y)``; 400 on anything else."""
    major, dot, minor = word[5:].partition(".")
    if not (word.startswith("HTTP/") and dot and major.isdecimal()
            and minor.isdecimal() and len(major) <= 10
            and len(minor) <= 10):
        raise _Refused(400, "bad-request-line",
                       f"bad HTTP version {word!r}")
    return int(major), int(minor)


def _read_request(
    rfile: BinaryIO,
) -> tuple[dict[str, object], tuple[int, int]] | None:
    """Read one request head -> ``(environ, version)``.

    ``None`` when the client sent nothing (end of stream or a blank
    request line): the connection is closed without an answer.  The
    body stays in ``rfile``, which is the environ's ``wsgi.input``.
    Raises :class:`_Refused` for a request to answer with an error.
    """
    raw = rfile.readline(MAX_LINE + 1)
    if len(raw) > MAX_LINE:
        raise _Refused(414, "uri-too-long",
                       f"request line over {MAX_LINE} bytes")
    words = raw.decode("iso-8859-1").split()
    if not words:
        return None
    version = (0, 9)
    if len(words) >= 3:
        version = _parse_version(words[-1])
        if version >= (2, 0):
            raise _Refused(505, "http-version-not-supported",
                           f"HTTP/{version[0]}.{version[1]}")
    if not (len(words) == 3 or (len(words) == 2 and words[0] == "GET")):
        raise _Refused(400, "bad-request-line",
                       "expected 'METHOD target HTTP/x.y'")
    method, target = words[0], words[1]
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    path, _, query = target.partition("?")
    environ: dict[str, object] = {
        "REQUEST_METHOD": method,
        "PATH_INFO": unquote(path, "iso-8859-1"),
        "QUERY_STRING": query,
        "SERVER_PROTOCOL": f"HTTP/{version[0]}.{version[1]}",
        "wsgi.input": rfile,
    }
    last: str | None = None
    for count in range(1, MAX_HEADERS + 2):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _Refused(431, "header-line-too-long",
                           f"header line over {MAX_LINE} bytes")
        if count > MAX_HEADERS:
            raise _Refused(431, "too-many-headers",
                           f"more than {MAX_HEADERS} header lines")
        if line in (b"\r\n", b"\n", b""):
            break
        text = line.decode("iso-8859-1")
        if text[0] in " \t" and last is not None:
            # an obsolete folded continuation of the previous header
            environ[last] = f"{environ[last]} {text.strip()}"
            continue
        name, colon, value = text.partition(":")
        if not colon:
            continue
        key = name.strip().upper().replace("-", "_")
        if key not in ("CONTENT_LENGTH", "CONTENT_TYPE"):
            key = "HTTP_" + key
        value = value.strip()
        if key not in environ:
            environ[key] = value
        elif key.startswith("HTTP_"):
            environ[key] = f"{environ[key]},{value}"
        last = key
    if "HTTP_TRANSFER_ENCODING" in environ:
        raise _Refused(411, "length-required",
                       "send the request body with Content-Length; "
                       "Transfer-Encoding is not supported")
    return environ, version


def _call_app(app: WSGIApp, environ: dict[str, object],
             version: tuple[int, int]) -> bytes:
    """Run the WSGI callable and frame its answer for the wire."""
    started: list[tuple[str, list[tuple[str, str]]]] = []
    chunks: list[bytes] = []

    def start_response(status: str, headers: list[tuple[str, str]],
                       exc_info: object = None) -> Callable[[bytes], None]:
        started.append((status, headers))
        return chunks.append

    chunks.extend(app(environ, start_response))
    body = b"".join(chunks)
    if version < (1, 0):
        return body
    status, headers = started[-1]
    return _response(status, headers, body)


class _Handler(socketserver.BaseRequestHandler):
    """One connection: one request, one answer, then close."""

    server: QAHTTPServer

    def handle(self) -> None:
        """Read the request, answer it, and let the server close."""
        sock = cast(socket.socket, self.request)
        sock.settimeout(READ_TIMEOUT_S)
        rfile = sock.makefile("rb")
        try:
            try:
                request = _read_request(rfile)
            except _Refused as refusal:
                sock.sendall(refusal.response())
                return
            except TimeoutError:
                sock.sendall(_Refused(
                    408, "request-timeout",
                    f"no request byte in {READ_TIMEOUT_S} s").response())
                return
            if request is None:
                return
            environ, version = request
            expect = str(environ.get("HTTP_EXPECT", "")).lower()
            if version >= (1, 1) and expect == "100-continue":
                sock.sendall(_CONTINUE)
            answer = _call_app(self.server.app, environ, version)
            sock.sendall(answer)
        except OSError:
            pass  # the client went away mid-exchange
        finally:
            rfile.close()


class QAHTTPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """The threaded HTTP server: one daemon thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: WSGIApp) -> None:
        self.app = app
        super().__init__(address, _Handler)


__all__ = ["MAX_HEADERS", "MAX_LINE", "QAHTTPServer", "READ_TIMEOUT_S",
           "WSGIApp"]
