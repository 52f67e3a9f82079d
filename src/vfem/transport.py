"""Message transports: in-process queues and loopback TCP sockets.

Both present the same server-side interface (send_to_client /
recv_from_client) and deliver a record only to the client it is addressed
to. The coordinator sits with `BlockLayout.server_client` (client 1, which
holds the response), so the records between the two never leave the
coordinator's process: on both transports they are validated and handed
over as `Message` objects, never encoded, counted or traced. That client's
agent reads its records when the server collects its reply, so the records
to the other clients leave first.

Every record to or from another client crosses the transport. Both
transports count and trace those with the same canonical encoding, so byte
counters, traces, and numerical results are identical across transports.
The in-process variant steps each of those agents inline (single-threaded
round robin); the socket variant runs one thread per remote client
speaking newline-delimited records.

The transport takes each agent's opening record (`ClientAgent.open`) when
it is built; a socket client sends its own right after its hello. Trace
records are appended in the server's event order: a send when the server
emits it, a client's record when the server collects it.

A socket client's thread returns once its agent is done, after its reply
to the `last` broadcast, or when the server closes its connection; so
closing the transport never waits on a client blocked in a read.
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
# seconds the server waits on a connected client for its next record
_REPLY_TIMEOUT = 60.0


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


def _opening(agent, schema: WireSchema) -> Message:
    """An agent's first record, validated like any reply."""
    msg = agent.open()
    schema.validate(msg)
    return msg


class BaseTransport:
    """The checks every record passes and the local path to the server
    client; a subclass carries the records of the other (remote) clients
    in `_send` and `_recv`."""

    def __init__(self, agents: dict, schema: WireSchema,
                 trace_path: Optional[str] = None):
        self.schema = schema
        self.num_clients = len(agents)
        self.local_client = schema.layout.server_client
        self._local_agent = agents[self.local_client]
        self._local_inbox: deque = deque()
        self._local_outbox = deque([_opening(self._local_agent, schema)])
        self.counters = ByteCounters()
        # opened last, so a failing opening leaves no file open
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

    def _handle(self, agent, msg: Message) -> list[Message]:
        """An agent's replies to one record, each validated as it is sent."""
        replies = agent.handle_message(msg)
        for reply in replies:
            self.schema.validate(reply)
        return replies

    def send_to_client(self, k: int, msg: Message) -> None:
        self._check_recipient(k, msg)
        self.schema.validate(msg)
        if k == self.local_client:
            self._local_inbox.append(msg)
        else:
            self._send(k, msg)

    def recv_from_client(self, k: int) -> Message:
        if k != self.local_client:
            return self._recv(k)
        # the local agent reads every record queued for it
        while self._local_inbox:
            self._local_outbox.extend(
                self._handle(self._local_agent, self._local_inbox.popleft()))
        if not self._local_outbox:
            raise ProtocolDesync(f"no pending message from client {k}")
        return self._local_outbox.popleft()

    def _send(self, k: int, msg: Message) -> None:
        raise NotImplementedError

    def _recv(self, k: int) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        if self._trace_file:
            self._trace_file.close()
            self._trace_file = None


class InProcessTransport(BaseTransport):
    """Single-threaded round robin: delivering a message immediately steps
    the addressed remote agent; its replies queue until the server collects
    them."""

    def __init__(self, agents: dict, schema: WireSchema,
                 trace_path: Optional[str] = None):
        # before the base opens the trace file
        self._outboxes: dict[int, deque] = {
            k: deque([_opening(agent, schema)]) for k, agent in agents.items()
            if k != schema.layout.server_client}
        super().__init__(agents, schema, trace_path)
        self.agents = agents

    def _send(self, k: int, msg: Message) -> None:
        self._record(msg, outgoing=True)
        self._outboxes[k].extend(self._handle(self.agents[k], msg))

    def _recv(self, k: int) -> Message:
        if not self._outboxes[k]:
            raise ProtocolDesync(f"no pending message from client {k}")
        msg = self._outboxes[k].popleft()
        self._record(msg, outgoing=False)
        return msg


class SocketTransport(BaseTransport):
    """One loopback TCP connection and one thread per remote client; the
    server client has neither, and a one-client fit opens no listener.

    Both ends set TCP_NODELAY: every record is a whole message its peer is
    waiting for, so holding its last segment back to coalesce it with later
    writes can only delay the round.

    While waiting for the clients to connect, the server checks every
    `_ACCEPT_POLL` seconds whether a client thread has failed, so a client
    that cannot connect ends the fit with `ProtocolDesync` instead of
    leaving it waiting forever. A connection that sends no hello within
    `_HELLO_TIMEOUT` seconds ends it the same way, and so does a connected
    client that sends no record for `_REPLY_TIMEOUT` seconds while the
    server waits on it."""

    def __init__(self, agents: dict, schema: WireSchema,
                 trace_path: Optional[str] = None):
        super().__init__(agents, schema, trace_path)
        self._listener: Optional[socket.socket] = None
        self._threads = []
        self._errors: list[BaseException] = []
        self._conns: dict[int, socket.socket] = {}
        self._readers = {}
        remote = {k: agent for k, agent in agents.items()
                  if k != self.local_client}
        try:
            if remote:
                self._connect(remote)
        except BaseException:
            self.close()
            raise

    def _connect(self, remote: dict) -> None:
        """Start one thread per remote client and accept its connection."""
        self._listener = socket.create_server(("127.0.0.1", 0))
        host, port = self._listener.getsockname()
        for k, agent in remote.items():
            th = threading.Thread(target=self._client_loop,
                                  args=(k, agent, host, port), daemon=True)
            th.start()
            self._threads.append(th)
        self._listener.settimeout(_ACCEPT_POLL)
        while len(self._conns) < len(remote):
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
                conn.settimeout(_REPLY_TIMEOUT)
            except BaseException:
                reader.close()
                conn.close()
                raise
            self._conns[k] = conn
            self._readers[k] = reader

    def _read_hello(self, reader) -> int:
        """The client id a new connection announces; any local process can
        connect, so it must be a decimal id in 1..K, not the server
        client's and not yet taken."""
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
        if k == self.local_client:
            raise ProtocolDesync(f"hello from client id {k}, the server client")
        if k in self._conns:
            raise ProtocolDesync(f"second connection for client id {k}")
        return k

    def _client_loop(self, k: int, agent, host: str, port: int) -> None:
        # a failure is surfaced on the next server-side call; it is recorded
        # before the connection closes, so a server that reads the end of
        # the stream finds its cause
        try:
            sock = socket.create_connection((host, port))
        except BaseException as err:
            self._errors.append(err)
            return
        with sock, sock.makefile("r", encoding="utf-8") as reader:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(f"{k}\n".encode())
                sock.sendall(encode(_opening(agent, self.schema)).encode("utf-8"))
                while not agent.done:
                    line = reader.readline()
                    if not line:
                        return
                    for reply in self._handle(agent, decode(line)):
                        sock.sendall(encode(reply).encode("utf-8"))
            except BaseException as err:
                self._errors.append(err)

    def _check_errors(self) -> None:
        if self._errors:
            err = self._errors[0]
            raise ProtocolDesync(f"client thread failed: {err!r}") from err

    def send_to_client(self, k: int, msg: Message) -> None:
        self._check_errors()
        super().send_to_client(k, msg)

    def recv_from_client(self, k: int) -> Message:
        self._check_errors()
        return super().recv_from_client(k)

    def _send(self, k: int, msg: Message) -> None:
        line = encode(msg)
        self._record(msg, outgoing=True, line=line)
        self._conns[k].sendall(line.encode("utf-8"))

    def _recv(self, k: int) -> Message:
        try:
            line = self._readers[k].readline()
        except TimeoutError as err:
            raise ProtocolDesync(f"client {k} sent no record within "
                                 f"{_REPLY_TIMEOUT} s") from err
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
        if self._listener is not None:
            self._listener.close()
        for th in self._threads:
            th.join(timeout=5.0)
        super().close()
