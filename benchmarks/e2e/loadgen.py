"""HTTP load generator: raw sockets, one thread per connection.

Each connection is a keep-alive TCP socket with ``TCP_NODELAY`` and
every request leaves in a single ``sendall`` — headers and body in one
segment — so a stall the generator observes is the server's, not an
artefact of the client's own small writes.

Two loops:

* **open**: send times are fixed up front (request *i* is due at
  ``t0 + i / rate``, connections taken round-robin) and never pushed
  back.  Latency is counted from the *due* time, so time a request spent
  waiting for its connection's previous reply counts against the system.
  ``late_ns`` is the generator's own lateness: how long after both the
  due time and the connection becoming free the bytes actually left.
* **closed**: each connection sends its next request as soon as the
  previous reply is complete, until the window ends.

All times are ``time.monotonic_ns()``, the clock the SUT process stamps
decisions with.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

REPLY_TIMEOUT_S = 10.0


@dataclass
class Sent:
    """One POST as the generator saw it."""

    request_id: str
    due_ns: int          # scheduled (open) or actual (closed) send time
    sent_ns: int
    replied_ns: int = 0
    status: int = 0      # 0: no reply (timeout or connection error)
    late_ns: int = 0


class Connection:
    def __init__(self, host: str, port: int, path: str):
        self.sock = socket.create_connection((host, port),
                                             timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.head = (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                     "Content-Type: text/xml; charset=utf-8\r\n"
                     "Content-Length: ").encode("ascii")
        self.buffer = b""

    def post(self, body: bytes) -> int:
        """Send one request in a single write; returns the HTTP status
        once the whole reply has arrived."""
        self.sock.sendall(self.head + str(len(body)).encode("ascii")
                          + b"\r\n\r\n" + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        self.buffer = self.buffer[length:]
        return int(lines[0].split()[1])

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def _post(connection: Connection, record: Sent, body: bytes) -> bool:
    """One POST recorded into *record*; False when the connection died."""
    try:
        record.status = connection.post(body)
    except (OSError, ValueError, IndexError):
        return False
    record.replied_ns = time.monotonic_ns()
    return True


def _open_worker(connection: Connection, plan: list[tuple[int, str, bytes]],
                 out: list[Sent]) -> None:
    free_ns = 0
    for due_ns, request_id, body in plan:
        wait = due_ns - time.monotonic_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        sent_ns = time.monotonic_ns()
        record = Sent(request_id, due_ns, sent_ns,
                      late_ns=sent_ns - max(due_ns, free_ns))
        out.append(record)
        if not _post(connection, record, body):
            return
        free_ns = record.replied_ns


def _closed_worker(connection: Connection, plan: list[tuple[str, bytes]],
                   end_ns: int, out: list[Sent]) -> None:
    for request_id, body in plan:
        sent_ns = time.monotonic_ns()
        if sent_ns >= end_ns:
            return
        record = Sent(request_id, sent_ns, sent_ns)
        out.append(record)
        if not _post(connection, record, body):
            return


def _run(workers: list[threading.Thread], connections: list[Connection],
         records: list[list[Sent]]) -> list[Sent]:
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        for connection in connections:
            connection.close()
    return sorted((r for per in records for r in per),
                  key=lambda r: r.sent_ns)


def open_loop(host: str, port: int, path: str,
              requests: list[tuple[str, bytes]], rate: float,
              connections: int) -> tuple[list[Sent], int]:
    """Fixed-rate sends; returns the records and the window start."""
    conns = [Connection(host, port, path) for _ in range(connections)]
    start_ns = time.monotonic_ns() + 50_000_000      # let threads settle
    plans: list[list] = [[] for _ in conns]
    for index, (request_id, body) in enumerate(requests):
        due_ns = start_ns + int(index * 1e9 / rate)
        plans[index % connections].append((due_ns, request_id, body))
    records: list[list[Sent]] = [[] for _ in conns]
    workers = [threading.Thread(target=_open_worker,
                                args=(conn, plan, out), daemon=True)
               for conn, plan, out in zip(conns, plans, records)]
    return _run(workers, conns, records), start_ns


def closed_loop(host: str, port: int, path: str,
                requests: list[tuple[str, bytes]], seconds: float,
                connections: int) -> tuple[list[Sent], int]:
    """Back-to-back sends on every connection for *seconds*."""
    conns = [Connection(host, port, path) for _ in range(connections)]
    start_ns = time.monotonic_ns()
    end_ns = start_ns + int(seconds * 1e9)
    records: list[list[Sent]] = [[] for _ in conns]
    workers = [threading.Thread(target=_closed_worker,
                                args=(conn, requests[index::connections],
                                      end_ns, out), daemon=True)
               for index, (conn, out) in enumerate(zip(conns, records))]
    return _run(workers, conns, records), start_ns
