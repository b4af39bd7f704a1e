"""The HTTP front end behind ``repro serve``: stdlib sockets only.

One thread runs a :mod:`selectors` loop over the listening socket and
every open connection; a connection carries one request.  The loop
buffers what a client sends until the request head and its
``Content-Length`` body are in, calls the WSGI app
(:class:`~repro.serve.app.QAService`), writes the answer without
blocking and closes the connection (``Connection: close``).  An idle
or slow client holds a socket and its buffer, never a thread.  The app
runs on the loop thread, or, with ``app_threads``, on a fixed pool of
that many threads so a coalescing bridge can fill its batches
(DESIGN.md §5o).

It keeps the limits and statuses of the stdlib ``http.server`` parser:
414 for a request line over 64 KiB; 400 for a malformed request line
or HTTP version; 505 for HTTP/2 and later; 431 for a header line over
64 KiB or for 100 header lines or more (``http.client`` counts the
terminating blank line too); an interim ``100 Continue`` for an
HTTP/1.1 ``Expect: 100-continue``; ``PATH_INFO`` percent-decoded
(ISO-8859-1) with ``QUERY_STRING`` split off and a leading ``//``
reduced to one slash; and a two-word ``GET`` line is HTTP/0.9, whose
answer is the bare body.

Its own refusals, in the service's JSON error shape
(:func:`repro.serve.contract.error_body`), never reach the app, so
``svqa_http_requests_total`` does not count them:

* 408 when a request's head is not in :data:`READ_TIMEOUT_S` seconds
  after its connection was accepted, however the client spaces its
  bytes (a body still short then gets the app's own 408);
* 411 for a ``Transfer-Encoding`` header: bodies are read by
  ``Content-Length`` only;
* 503 ``too-many-connections`` for a connection accepted while
  :data:`MAX_CONNECTIONS` are open.

A body declared longer than :data:`MAX_BODY` is not buffered: the app
gets the request at once and refuses it with 413 before reading.
"""

from __future__ import annotations

import io
import selectors
import socket
import threading
import time
import traceback
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from queue import Empty, SimpleQueue
from typing import BinaryIO
from urllib.parse import unquote

from repro.serve.contract import encode_json, error_body

#: the longest request or header line, as ``http.client`` allows
MAX_LINE = 65536
#: header lines, the terminating blank line included, beyond which the
#: request is refused with 431 (``http.client``'s count)
MAX_HEADERS = 100
#: the longest request body the front end buffers (and the app reads)
MAX_BODY = 64 * 1024
#: seconds from accept within which a request's head and body must
#: arrive (408 otherwise); taking the answer, and closing after a
#: refusal, each get as long again
READ_TIMEOUT_S = 10.0
#: open connections beyond which a new one is answered 503 and closed
MAX_CONNECTIONS = 256

WSGIApp = Callable[[dict[str, object], Callable[..., object]],
                   Iterable[bytes]]

_REFUSALS = {
    400: "400 Bad Request",
    408: "408 Request Timeout",
    411: "411 Length Required",
    414: "414 URI Too Long",
    431: "431 Request Header Fields Too Large",
    503: "503 Service Unavailable",
    505: "505 HTTP Version Not Supported",
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_RECV = 65536
#: the selector data of the socket that app threads and
#: :meth:`QAHTTPServer.shutdown` wake the loop through
_WAKE = "wake"


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


class _Incomplete(Exception):
    """The request head runs past the bytes received so far."""


class _Received(io.BytesIO):
    """The bytes of a request received so far, read as a stream.

    A line that runs off their end raises :class:`_Incomplete`, unless
    it is already over the line limit or the client has closed its
    side (a socket read would then return the same short line), so
    :func:`_read_request` either decides on these bytes exactly as it
    would on the whole stream or asks for more.
    """

    def __init__(self, data: bytes, eof: bool) -> None:
        super().__init__(data)
        self.eof = eof

    def readline(self, size: int | None = -1, /) -> bytes:
        """One line, or :class:`_Incomplete` if it may not be whole."""
        line = super().readline(size)
        if not (line.endswith(b"\n") or self.eof or len(line) == size):
            raise _Incomplete
        return line


class _StalledBody:
    """The body of a request still short of its ``Content-Length`` at
    the deadline: reading it raises :class:`TimeoutError`, as a
    timed-out socket read would."""

    def read(self, size: int = -1) -> bytes:
        """Raise :class:`TimeoutError`: the rest never came."""
        raise TimeoutError("request body stalled")


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
    body stays in ``rfile``, after the head.  Raises
    :class:`_Refused` for a request to answer with an error.
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


def _content_length(environ: dict[str, object]) -> int:
    """The declared body length; 0 when absent or malformed, as the
    app reads it."""
    try:
        return max(0, int(str(environ.get("CONTENT_LENGTH") or 0)))
    except ValueError:
        return 0


#: what a connection is waiting for
_READING, _RUNNING, _WRITING, _DRAINING = range(4)


class _Connection:
    """One accepted socket: what it has sent and what it is owed."""

    __slots__ = ("sock", "state", "deadline", "data", "request", "start",
                 "out", "drain", "events")

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock = sock
        self.state = _READING
        #: monotonic time at which the current state gives up (not
        #: used while the app runs)
        self.deadline = deadline
        self.data = bytearray()
        #: the parsed head, once it is complete
        self.request: tuple[dict[str, object], tuple[int, int]] | None \
            = None
        #: where the body starts in ``data``
        self.start = 0
        self.out = memoryview(b"")
        #: the answer leaves part of the request unread: once it is
        #: written, read the client's remaining bytes until it closes
        #: (closing on unread bytes would reset the connection, and the
        #: client could lose the answer)
        self.drain = False
        #: the selector events the socket is registered for (0: none)
        self.events = 0


class QAHTTPServer:
    """The HTTP server: one selector loop, one request per connection.

    ``app_threads`` > 0 runs the app on a fixed pool of that many
    threads instead of the loop thread.  The public surface is that of
    ``socketserver.TCPServer``: :meth:`serve_forever` on one thread,
    :meth:`shutdown` from another, then :meth:`server_close`.
    """

    def __init__(self, address: tuple[str, int], app: WSGIApp,
                 app_threads: int = 0) -> None:
        self.app = app
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                                   1)
            self.socket.bind(address)
            self.socket.listen(MAX_CONNECTIONS)
        except OSError:
            self.socket.close()
            raise
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ, None)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._pool = ThreadPoolExecutor(
            app_threads, thread_name_prefix="repro-serve-app") \
            if app_threads > 0 else None
        #: answers the pool has finished, for the loop to write
        self._finished: SimpleQueue[
            tuple[_Connection, Future[bytes | None]]] = SimpleQueue()
        self._open: set[_Connection] = set()
        #: no open connection's deadline is earlier than this
        self._next_deadline = float("inf")
        self._stop = False
        self._stopped = threading.Event()
        self._stopped.set()

    # -- the loop ---------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`shutdown`; close every open connection
        on the way out, so its client sees the end of the stream."""
        self._stopped.clear()
        try:
            while not self._stop:
                now = time.monotonic()
                if now >= self._next_deadline:
                    self._expire(now)
                timeout = min(poll_interval,
                              max(0.0, self._next_deadline - now))
                accept = False
                for key, mask in self._selector.select(timeout):
                    conn = key.data
                    if conn is None:
                        # after the other events, so connections that
                        # closed in this round no longer count to the cap
                        accept = True
                    elif conn is _WAKE:
                        self._collect()
                    elif mask & selectors.EVENT_WRITE:
                        self._write(conn)
                    else:
                        self._read(conn)
                if accept:
                    self._accept()
        finally:
            for conn in list(self._open):
                self._close(conn)
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop = True
        self._wake()
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket and the app threads (after the
        requests they are running)."""
        self._selector.close()
        self.socket.close()
        self._wake_r.close()
        self._wake_w.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def _wake(self) -> None:
        """Make the loop's ``select`` return (any thread)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # already woken (buffer full), or the server is closed

    # -- connections ------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.socket.accept()
            except OSError:
                return  # none left (or the accept failed: nothing to do)
            sock.setblocking(False)
            conn = _Connection(sock, self._arm(READ_TIMEOUT_S))
            busy = len(self._open) >= MAX_CONNECTIONS
            self._open.add(conn)
            if busy:
                # answered at once; it then holds only its socket, until
                # its client closes or the deadline passes
                self._refuse(conn, _Refused(
                    503, "too-many-connections",
                    f"{MAX_CONNECTIONS} connections already open"))
            else:
                self._read(conn)  # the request often comes with the connect

    def _arm(self, seconds: float) -> float:
        """A deadline ``seconds`` from now, noted for :meth:`_expire`."""
        deadline = time.monotonic() + seconds
        self._next_deadline = min(self._next_deadline, deadline)
        return deadline

    def _expire(self, now: float) -> None:
        """Give up on every connection past its deadline."""
        self._next_deadline = float("inf")
        for conn in list(self._open):
            if conn.state == _RUNNING:
                continue
            if conn.deadline > now:
                self._next_deadline = min(self._next_deadline,
                                          conn.deadline)
            elif conn.state != _READING:
                self._close(conn)  # the client stopped taking its answer
            elif conn.request is None:
                self._refuse(conn, _Refused(
                    408, "request-timeout",
                    f"request not received within {READ_TIMEOUT_S} s"))
            else:
                conn.drain = True
                self._dispatch(conn, _StalledBody())

    def _watch(self, conn: _Connection, events: int) -> None:
        """Register ``conn`` for exactly ``events`` (0: for none)."""
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        self._watch(conn, 0)
        self._open.discard(conn)
        conn.sock.close()

    # -- reading ----------------------------------------------------------

    def _read(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV)
        except BlockingIOError:
            self._watch(conn, selectors.EVENT_READ)
            return
        except OSError:
            self._close(conn)
            return
        eof = not chunk
        if conn.state == _DRAINING:
            if eof:
                self._close(conn)
            return
        conn.data += chunk
        if conn.request is None:
            environ = self._parse_head(conn, chunk, eof)
            if environ is None:
                return
        else:
            environ = conn.request[0]
        length = _content_length(environ)
        missing = length - (len(conn.data) - conn.start)
        if 0 < missing and length <= MAX_BODY and not eof:
            self._watch(conn, selectors.EVENT_READ)
            return
        conn.drain = missing > 0 and not eof
        self._dispatch(conn, io.BytesIO(conn.data[conn.start:]))

    def _parse_head(self, conn: _Connection, chunk: bytes,
                    eof: bool) -> dict[str, object] | None:
        """The environ once the head is complete; ``None`` while more
        bytes are needed, or when the connection was answered or
        closed instead."""
        data = conn.data
        if not (eof or b"\n" in chunk
                or len(data) - data.rfind(b"\n") > MAX_LINE + 1):
            # no line can have ended, nor grown past the limit
            self._watch(conn, selectors.EVENT_READ)
            return None
        received = _Received(bytes(data), eof)
        try:
            request = _read_request(received)
        except _Incomplete:
            self._watch(conn, selectors.EVENT_READ)
            return None
        except _Refused as refusal:
            self._refuse(conn, refusal)
            return None
        if request is None:
            self._close(conn)
            return None
        conn.request = request
        conn.start = received.tell()
        environ, version = request
        expect = str(environ.get("HTTP_EXPECT", "")).lower()
        if version >= (1, 1) and expect == "100-continue":
            # 25 bytes into a send buffer nothing has used yet: a send
            # that does not take them whole means the client is gone
            try:
                whole = conn.sock.send(_CONTINUE) == len(_CONTINUE)
            except OSError:
                whole = False
            if not whole:
                self._close(conn)
                return None
        return environ

    # -- the app ----------------------------------------------------------

    def _dispatch(self, conn: _Connection, body: object) -> None:
        """Hand the complete request to the app (inline or pooled)."""
        assert conn.request is not None
        environ, version = conn.request
        environ["wsgi.input"] = body
        self._watch(conn, 0)
        conn.state = _RUNNING
        if self._pool is None:
            self._respond(conn, self._run(environ, version))
            return
        future = self._pool.submit(self._run, environ, version)
        future.add_done_callback(partial(self._finish, conn))

    def _run(self, environ: dict[str, object],
             version: tuple[int, int]) -> bytes | None:
        """The app's framed answer; ``None`` if it raised (the
        traceback goes to stderr and the connection is closed)."""
        try:
            return _call_app(self.app, environ, version)
        except Exception:  # noqa: BLE001 - the loop must keep serving
            traceback.print_exc()
            return None

    def _finish(self, conn: _Connection, future: Future[bytes | None]
                ) -> None:
        """A pool thread's answer is ready: queue it for the loop."""
        self._finished.put((conn, future))
        self._wake()

    def _collect(self) -> None:
        """Write the answers the pool finished (loop thread)."""
        try:
            while self._wake_r.recv(_RECV):
                pass
        except BlockingIOError:
            pass  # drained
        while True:
            try:
                conn, future = self._finished.get_nowait()
            except Empty:
                return
            if conn in self._open:
                self._respond(conn, future.result())

    # -- writing ----------------------------------------------------------

    def _refuse(self, conn: _Connection, refusal: _Refused) -> None:
        """Answer a request the front end refuses, unread to its end."""
        conn.drain = True
        self._respond(conn, refusal.response())

    def _respond(self, conn: _Connection, answer: bytes | None) -> None:
        """Start writing ``answer``; close at once if there is none."""
        if answer is None:
            self._close(conn)
            return
        conn.state = _WRITING
        conn.request = None
        conn.data = bytearray()
        conn.out = memoryview(answer)
        conn.deadline = self._arm(READ_TIMEOUT_S)
        self._write(conn)

    def _write(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        conn.out = conn.out[sent:]
        if conn.out:
            self._watch(conn, selectors.EVENT_WRITE)
        elif conn.drain:
            self._start_drain(conn)
        else:
            self._close(conn)

    def _start_drain(self, conn: _Connection) -> None:
        """Signal the end of the answer, then read until the client
        closes (or :data:`READ_TIMEOUT_S` passes)."""
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close(conn)
            return
        conn.state = _DRAINING
        conn.deadline = self._arm(READ_TIMEOUT_S)
        self._watch(conn, selectors.EVENT_READ)


__all__ = ["MAX_BODY", "MAX_CONNECTIONS", "MAX_HEADERS", "MAX_LINE",
           "QAHTTPServer", "READ_TIMEOUT_S", "WSGIApp"]
