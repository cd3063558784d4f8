"""The load generator's side of the wire: blocking sockets, pre-encoded frames.

Requests are encoded once per run through the public codec functions
and then only copied to the socket, so the generator's own CPU stays
well below the server's (``loadgen.cpu_share`` reports how far).  Two
drivers share one connection class:

- :func:`run_windowed` — closed loop with a fixed number of frames in
  flight, so the server never idles between frames and throughput is
  the server's, not the scheduler's.
- :func:`run_paced` — open loop at a fixed frame rate, timed from each
  frame's *intended* send time so a stall is charged to every frame
  it delayed.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.codec import (
    decode_frame_body,
    encode_envelope_as,
    hello_envelope,
)

_LENGTH = struct.Struct(">I")

#: ``verify(pool_index, body, sequence_number) -> failed op count``.
Verifier = Callable[[int, bytes, int], int]


class WireError(ConnectionError):
    """The peer closed, timed out or answered out of protocol."""


class WireConn:
    """One TCP connection speaking length-prefixed frames."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb", buffering=1 << 18)
        self.bytes_out = 0
        self.bytes_in = 0
        self.caps: Dict[str, Any] = {}

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)
        self.bytes_out += len(frame)

    def recv(self) -> bytes:
        """One frame body (without its length prefix)."""
        prefix = self._reader.read(4)
        if len(prefix) != 4:
            raise WireError("connection closed between frames")
        (length,) = _LENGTH.unpack(prefix)
        body = self._reader.read(length)
        if len(body) != length:
            raise WireError("connection closed mid frame")
        self.bytes_in += 4 + length
        return body

    def call(self, envelope: Dict[str, Any], codec: str = "binary") -> Dict[str, Any]:
        """One un-pipelined request; the decoded reply envelope."""
        self.send(encode_envelope_as(envelope, codec))
        return decode_frame_body(self.recv())

    def hello(self) -> Dict[str, Any]:
        """Negotiate the binary codec; returns the peer's capabilities."""
        reply = self.call(hello_envelope(), codec="json")
        if not reply.get("ok") or reply["value"].get("codec") != "binary":
            raise WireError(f"hello did not negotiate binary: {reply!r}")
        self.caps = reply["value"]
        return self.caps

    def capabilities(self) -> Dict[str, Any]:
        """The live ``info.capabilities`` block (cache and storage counters)."""
        reply = self.call({"op": "info"})
        if not reply.get("ok"):
            raise WireError(f"info failed: {reply!r}")
        return reply["value"]["capabilities"]


class PhaseResult:
    """Timestamps and failure counts of one driven phase."""

    def __init__(self, ops_per_frame: int) -> None:
        self.ops_per_frame = ops_per_frame
        self.sent: List[float] = []
        self.done: List[float] = []
        #: Open loop only: when each frame was *due*.
        self.intended: List[float] = []
        self.frames_attempted = 0
        self.ops_failed = 0
        self.error: Optional[str] = None
        self.started = 0.0
        self.ended = 0.0

    @property
    def ops_attempted(self) -> int:
        return self.frames_attempted * self.ops_per_frame

    def fail_rest(self, answered: int, reason: str) -> None:
        """Frames never answered count as failed, every op of them."""
        self.ops_failed += (self.frames_attempted - answered) * self.ops_per_frame
        self.error = reason


def run_windowed(
    conn: WireConn,
    pool: Sequence[bytes],
    order: Sequence[int],
    window: int,
    ops_per_frame: int,
    verify: Verifier,
    timeout: float,
    every_second: Optional[Callable[[], None]] = None,
) -> PhaseResult:
    """Send ``pool[i] for i in order`` keeping ``window`` frames in flight.

    The connection answers in order, so reply ``n`` belongs to
    ``order[n]``.  A phase that overruns ``timeout`` stops and counts
    every unanswered frame's ops as failed.  ``every_second`` is called
    about once a second from inside the loop (the server-CPU sampler).
    """
    result = PhaseResult(ops_per_frame)
    result.frames_attempted = total = len(order)
    sent, done = result.sent, result.done
    clock = time.perf_counter
    send, recv = conn.send, conn.recv
    conn.sock.settimeout(min(timeout, 30.0))
    result.started = clock()
    deadline = result.started + timeout
    next_tick = result.started + 1.0
    answered = 0
    try:
        issued = 0
        while issued < min(window, total):
            sent.append(clock())
            send(pool[order[issued]])
            issued += 1
        while answered < total:
            body = recv()
            now = clock()
            done.append(now)
            result.ops_failed += verify(order[answered], body, answered)
            answered += 1
            if issued < total:
                sent.append(clock())
                send(pool[order[issued]])
                issued += 1
            if now >= next_tick:
                next_tick += 1.0
                if every_second is not None:
                    every_second()
                if now > deadline:
                    raise WireError(f"phase exceeded its {timeout:.0f} s timeout")
    except OSError as exc:
        result.fail_rest(answered, f"{type(exc).__name__}: {exc}")
    result.ended = clock()
    return result


def run_paced(
    conn: WireConn,
    pool: Sequence[bytes],
    order: Sequence[int],
    frames_per_s: float,
    ops_per_frame: int,
    verify: Verifier,
    timeout: float,
) -> PhaseResult:
    """Open loop: frame ``n`` is due at ``start + n / frames_per_s``.

    A busy-wait scheduler on a non-blocking socket: sleeping would add
    the timer's wake-up jitter to every sample.  Replies are parsed
    from one receive buffer; latency is taken from the intended time.
    """
    result = PhaseResult(ops_per_frame)
    result.frames_attempted = total = len(order)
    sock = conn.sock
    clock = time.perf_counter
    interval = 1.0 / frames_per_s
    buffer = bytearray()
    answered = issued = 0
    sock.setblocking(False)
    result.started = start = clock()
    deadline = start + timeout
    try:
        while answered < total:
            now = clock()
            if now > deadline:
                raise WireError(f"paced phase exceeded its {timeout:.0f} s timeout")
            if issued < total and now >= start + issued * interval:
                frame = pool[order[issued]]
                result.intended.append(start + issued * interval)
                result.sent.append(now)
                # Frames are far smaller than the socket buffer; a
                # short write means the peer stopped reading.
                if sock.send(frame) != len(frame):
                    raise WireError("short write on a paced frame")
                conn.bytes_out += len(frame)
                issued += 1
                continue
            readable, _, _ = select.select([sock], [], [], 0)
            if not readable:
                continue
            chunk = sock.recv(1 << 18)
            if not chunk:
                raise WireError("connection closed during the paced phase")
            buffer += chunk
            conn.bytes_in += len(chunk)
            while len(buffer) >= 4:
                (length,) = _LENGTH.unpack_from(buffer, 0)
                if len(buffer) < 4 + length:
                    break
                body = bytes(buffer[4 : 4 + length])
                del buffer[: 4 + length]
                result.done.append(clock())
                result.ops_failed += verify(order[answered], body, answered)
                answered += 1
    except OSError as exc:
        result.fail_rest(answered, f"{type(exc).__name__}: {exc}")
    finally:
        sock.setblocking(True)
        sock.settimeout(30.0)
    result.ended = clock()
    return result


def find_role(host: str, port: int, role: str, attempts: int = 64) -> WireConn:
    """A negotiated connection that landed on a fleet worker of ``role``.

    ``SO_REUSEPORT`` spreads connections by source port, so redial
    until ``hello`` reports the wanted ``workers.role``.
    """
    for _ in range(attempts):
        conn = WireConn(host, port)
        caps = conn.hello()
        if (caps.get("workers") or {}).get("role") == role:
            return conn
        conn.close()
    raise WireError(f"no {role} worker answered in {attempts} connections")
