"""Daemon shells around :class:`~repro.acp.server.AcpServer`.

Two transports carry the same JSONL frames the loopback client speaks:

* **Unix socket** — one frame per line; each line is answered with the
  response batch (event frames, then the terminating non-event frame)
  in one write.  A connection may send any number of lines; the client
  keeps one open for all its requests.
* **HTTP** — ``POST /v1/frames`` with a JSONL body answers with a JSONL
  body; ``GET /metrics`` serves live Prometheus text for scrapers;
  ``GET /v1/sessions`` serves the registry snapshot as plain JSON.

Both run on daemon threads inside :class:`AcpDaemon`, so one process
serves both endpoints over a single session registry.  A client
disconnect (mid-run or otherwise) only closes that connection: sessions
live in the registry, not in the socket, which is what lets a crashed
client reattach.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import ConfigurationError
from repro.acp.server import AcpServer
from repro.acp import wire


class _UnixHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        acp = self.server.acp
        for raw in self.rfile:
            if not raw.endswith(b"\n"):
                # A client died mid-write: the trailing line is torn.
                # Discard it — half a frame must never reach dispatch —
                # count it, and tell whoever is still listening.
                acp.note_corrupt_frame()
                self._reply(
                    [
                        acp.error_line(
                            "",
                            "torn trailing line discarded "
                            f"({len(raw)} bytes, no newline)",
                            code=wire.ERR_TORN_LINE,
                        )
                    ]
                )
                return
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                acp.note_corrupt_frame()
                if not self._reply(
                    [
                        acp.error_line(
                            "",
                            "undecodable frame bytes (not utf-8)",
                            code=wire.ERR_BAD_FRAME,
                        )
                    ]
                ):
                    return
                continue
            if not line:
                continue
            if not self._reply(acp.handle_line(line)):
                return  # the client went away; the sessions did not

    def _reply(self, lines) -> bool:
        if not lines:
            return True
        try:
            # One sendall per response: each write can wake the client.
            self.wfile.write(("\n".join(lines) + "\n").encode("utf-8"))
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, path: str, acp: AcpServer):
        self.acp = acp
        self._live: set = set()
        self._live_lock = threading.Lock()
        super().__init__(path, _UnixHandler)

    def process_request(self, request, client_address) -> None:
        with self._live_lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open client connection: clients keep theirs open
        between requests, and a stopped daemon must not answer them."""
        with self._live_lock:
            live = list(self._live)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone


class _HttpHandler(BaseHTTPRequestHandler):
    def log_message(self, *args) -> None:  # keep the daemon's stdout clean
        pass

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        acp: AcpServer = self.server.acp
        if self.path == "/metrics":
            self._send(
                200,
                "text/plain; version=0.0.4",
                acp.metrics_text().encode("utf-8"),
            )
        elif self.path == "/v1/sessions":
            frames = acp.handle_frame(
                wire.make_frame("sessions", "", 0, {})
            )
            self._send(
                200,
                "application/json",
                json.dumps(frames[-1].payload).encode("utf-8"),
            )
        else:
            self._send(404, "text/plain", b"not found\n")

    def do_POST(self) -> None:
        if self.path != "/v1/frames":
            self._send(404, "text/plain", b"not found\n")
            return
        acp: AcpServer = self.server.acp
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            acp.note_corrupt_frame()
            self._send(400, "text/plain", b"bad Content-Length\n")
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError:
            acp.note_corrupt_frame()
            out = [
                acp.error_line(
                    "",
                    "undecodable frame bytes (not utf-8)",
                    code=wire.ERR_BAD_FRAME,
                )
            ]
            self._send(
                200,
                "application/jsonl",
                ("\n".join(out) + "\n").encode("utf-8"),
            )
            return
        out = []
        for line in body.splitlines():
            if line.strip():
                out.extend(acp.handle_line(line))
        self._send(
            200, "application/jsonl", ("\n".join(out) + "\n").encode("utf-8")
        )


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, acp: AcpServer):
        self.acp = acp
        super().__init__(address, _HttpHandler)


class AcpDaemon:
    """One control plane, optionally exposed on both transports."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
        state_dir: Optional[str] = None,
        quantum_s: Optional[float] = None,
        lease_ttl_s: Optional[float] = None,
    ):
        if socket_path is None and http_port is None:
            raise ConfigurationError(
                "the daemon needs a socket path, an http port, or both"
            )
        kwargs = {"state_dir": state_dir, "threaded": True}
        if quantum_s is not None:
            kwargs["quantum_s"] = quantum_s
        if lease_ttl_s is not None:
            kwargs["lease_ttl_s"] = lease_ttl_s
        self.acp = AcpServer(**kwargs)
        self.socket_path = socket_path
        self._http_host = http_host
        self._http_port_requested = http_port
        #: The bound HTTP port (resolves ``http_port=0`` after start()).
        self.http_port: Optional[int] = None
        self._unix: Optional[_UnixServer] = None
        self._http: Optional[_HttpServer] = None
        self._threads: list = []

    def start(self) -> None:
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # a stale socket from a crash
            self._unix = _UnixServer(self.socket_path, self.acp)
            thread = threading.Thread(
                target=self._unix.serve_forever,
                name="acp-unix",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self._http_port_requested is not None:
            self._http = _HttpServer(
                (self._http_host, self._http_port_requested), self.acp
            )
            self.http_port = self._http.server_address[1]
            thread = threading.Thread(
                target=self._http.serve_forever,
                name="acp-http",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def endpoints(self) -> list:
        """The endpoint strings clients can attach to, in start order."""
        out = []
        if self.socket_path is not None:
            out.append(f"unix://{self.socket_path}")
        if self.http_port is not None:
            out.append(f"http://{self._http_host}:{self.http_port}")
        return out

    def stop(self) -> None:
        self.acp.shutdown()
        for server in (self._unix, self._http):
            if server is not None:
                server.shutdown()
                server.server_close()
        if self._unix is not None:
            self._unix.close_connections()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "AcpDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
