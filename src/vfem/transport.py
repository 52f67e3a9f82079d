"""Message transports: in-process queues and loopback TCP sockets.

Both present the same server-side interface (send_to_client / recv_from_client),
deliver a record only to the client it is addressed to, and account bytes
with the same canonical encoding, so byte counters, traces, and numerical
results are identical across transports. The in-process variant
steps each client agent inline (single-threaded round robin); the socket
variant runs one thread per client speaking newline-delimited records.

Trace records are appended in the server's event order: a send when the
server emits it, a reply when the server collects it.

A socket client's thread returns as soon as its agent is done, after its
reply to the `last` broadcast or on `converged`, so closing the transport
after a fit never waits on a client blocked in a read.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Optional

from .errors import ProtocolDesync
from .messages import Message, WireSchema, decode, encode

_MAX_HELLO = 32  # characters read for a connection's hello line
# seconds between checks for failed client threads while waiting to accept
_ACCEPT_POLL = 0.05
# seconds a new connection has to send its hello line
_HELLO_TIMEOUT = 5.0


class ByteCounters:
    def __init__(self):
        self.by_kind: dict[str, dict[str, int]] = {}
        self.messages = 0

    def add(self, kind: str, nbytes: int, outgoing: bool) -> None:
        self.messages += 1
        per_kind = self.by_kind.setdefault(
            kind, {"to_clients": 0, "from_clients": 0})
        per_kind["to_clients" if outgoing else "from_clients"] += nbytes

    def snapshot(self) -> dict:
        to_clients = sum(v["to_clients"] for v in self.by_kind.values())
        from_clients = sum(v["from_clients"] for v in self.by_kind.values())
        return {
            "messages": self.messages,
            "bytes_to_clients": to_clients,
            "bytes_from_clients": from_clients,
            "bytes_total": to_clients + from_clients,
            "bytes_by_kind": {kind: dict(v) for kind, v in sorted(self.by_kind.items())},
        }


class BaseTransport:
    def __init__(self, schema: WireSchema, num_clients: int,
                 trace_path: Optional[str] = None):
        self.schema = schema
        self.num_clients = num_clients
        self.counters = ByteCounters()
        self._trace_file = open(trace_path, "w") if trace_path else None

    def _record(self, msg: Message, outgoing: bool, line: str | None = None) -> None:
        if line is None:
            line = encode(msg)
        nbytes = len(line) if line.isascii() else len(line.encode("utf-8"))
        self.counters.add(msg.kind, nbytes, outgoing)
        if self._trace_file:
            self._trace_file.write(line)

    def _check_recipient(self, k: int, msg: Message) -> None:
        """A record goes only to the client it names."""
        if msg.to != k:
            raise ProtocolDesync(f"{msg.kind!r} addressed to client {msg.to} "
                                 f"sent to client {k}")

    def send_to_client(self, k: int, msg: Message) -> None:
        raise NotImplementedError

    def recv_from_client(self, k: int) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        if self._trace_file:
            self._trace_file.close()
            self._trace_file = None


class InProcessTransport(BaseTransport):
    """Single-threaded round robin: delivering a message immediately steps
    the addressed agent; its replies queue until the server collects them."""

    def __init__(self, agents: dict, schema: WireSchema,
                 trace_path: Optional[str] = None):
        super().__init__(schema, len(agents), trace_path)
        self.agents = agents
        self._outboxes: dict[int, deque] = {k: deque() for k in agents}

    def send_to_client(self, k: int, msg: Message) -> None:
        self._check_recipient(k, msg)
        self.schema.validate(msg)
        self._record(msg, outgoing=True)
        replies = self.agents[k].handle_message(msg)
        for reply in replies:
            self.schema.validate(reply)  # sender-side check
            self._outboxes[k].append(reply)

    def recv_from_client(self, k: int) -> Message:
        if not self._outboxes[k]:
            raise ProtocolDesync(f"no pending message from client {k}")
        msg = self._outboxes[k].popleft()
        self._record(msg, outgoing=False)
        return msg


class SocketTransport(BaseTransport):
    """One loopback TCP connection per client, one thread per client agent.

    Both ends set TCP_NODELAY: every record is a whole message its peer is
    waiting for, so holding its last segment back to coalesce it with later
    writes can only delay the round.

    While waiting for the clients to connect, the server checks every
    `_ACCEPT_POLL` seconds whether a client thread has failed, so a client
    that cannot connect ends the fit with `ProtocolDesync` instead of
    leaving it waiting forever. A connection that sends no hello within
    `_HELLO_TIMEOUT` seconds ends it the same way."""

    def __init__(self, agents: dict, schema: WireSchema,
                 trace_path: Optional[str] = None):
        super().__init__(schema, len(agents), trace_path)
        self.agents = agents
        self._listener = socket.create_server(("127.0.0.1", 0))
        host, port = self._listener.getsockname()
        self._threads = []
        self._errors: list[BaseException] = []
        for k, agent in agents.items():
            th = threading.Thread(target=self._client_loop,
                                  args=(k, agent, host, port), daemon=True)
            th.start()
            self._threads.append(th)
        self._conns: dict[int, socket.socket] = {}
        self._readers = {}
        self._listener.settimeout(_ACCEPT_POLL)
        try:
            while len(self._conns) < len(agents):
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    self._check_errors()
                    continue
                conn.settimeout(_HELLO_TIMEOUT)
                reader = conn.makefile("r", encoding="utf-8")
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    k = self._read_hello(reader)
                    conn.settimeout(None)
                except BaseException:
                    reader.close()
                    conn.close()
                    raise
                self._conns[k] = conn
                self._readers[k] = reader
        except BaseException:
            self.close()
            raise

    def _read_hello(self, reader) -> int:
        """The client id a new connection announces; any local process can
        connect, so it must be a decimal id in 1..K not yet taken."""
        try:
            hello = reader.readline(_MAX_HELLO)
        except (OSError, UnicodeDecodeError) as err:
            raise ProtocolDesync(f"unreadable hello: {err}") from err
        text = hello[:-1] if hello.endswith("\n") else None
        if not (text and text.isascii() and text.isdigit()):
            raise ProtocolDesync(f"malformed hello {hello!r}")
        k = int(text)
        if not 1 <= k <= self.num_clients:
            raise ProtocolDesync(f"hello from unknown client id {k}")
        if k in self._conns:
            raise ProtocolDesync(f"second connection for client id {k}")
        return k

    def _client_loop(self, k: int, agent, host: str, port: int) -> None:
        try:
            with socket.create_connection((host, port)) as sock, \
                    sock.makefile("r", encoding="utf-8") as reader:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(f"{k}\n".encode())
                while True:
                    line = reader.readline()
                    if not line:
                        return
                    msg = decode(line)
                    replies = agent.handle_message(msg)
                    for reply in replies:
                        self.schema.validate(reply)
                        sock.sendall(encode(reply).encode("utf-8"))
                    if agent.done:
                        return
        except BaseException as err:  # surfaced on the next server-side call
            self._errors.append(err)

    def _check_errors(self) -> None:
        if self._errors:
            err = self._errors[0]
            raise ProtocolDesync(f"client thread failed: {err!r}") from err

    def send_to_client(self, k: int, msg: Message) -> None:
        self._check_errors()
        self._check_recipient(k, msg)
        self.schema.validate(msg)
        line = encode(msg)
        self._record(msg, outgoing=True, line=line)
        self._conns[k].sendall(line.encode("utf-8"))

    def recv_from_client(self, k: int) -> Message:
        self._check_errors()
        line = self._readers[k].readline()
        if not line:
            self._check_errors()
            raise ProtocolDesync(f"connection to client {k} closed mid-round")
        msg = decode(line)
        self.schema.validate(msg)
        self._record(msg, outgoing=False, line=line)
        return msg

    def close(self) -> None:
        # a socket stays open while a file from makefile() is, so close both
        for handle in (*self._readers.values(), *self._conns.values()):
            try:
                handle.close()
            except OSError:
                pass
        self._listener.close()
        for th in self._threads:
            th.join(timeout=5.0)
        super().close()
