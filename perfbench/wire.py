"""Client side of the gateway's two planes, written from their documented
formats so the load generator shares no code with the program it drives.

Ingest frames: ``u32`` little-endian payload length, then the payload,
whose first byte is the frame type (HELLO 1, BATCH 2, ACK 4, ERROR 5).
A record is the fixed-width 35-byte row
``[i64 time][u8 action][f64 latency][u64 user][u8 class][i64 tz][u8 outcome]``.
The query plane is HTTP/1.1 GET with one request per connection.
"""

import errno
import json
import socket
import struct
import time

PROTOCOL_VERSION = 1
T_HELLO, T_BATCH, T_ACK, T_ERROR = 1, 2, 4, 5

ACTIONS = {"SelectMail": 0, "SwitchFolder": 1, "Search": 2, "ComposeSend": 3, "Other": 4}
CLASSES = {"Business": 0, "Consumer": 1}
OUTCOMES = {"Success": 0, "Error": 1}

_RECORD = struct.Struct("<qBdQBqB")
RECORD_BYTES = _RECORD.size


def encode_csv_row(line):
    """One CSV data line of `autosens generate` as a 35-byte wire row.
    The latency goes through Python's float parse, which is correctly
    rounded like the program's, so the bits match the CSV path."""
    t, action, lat, user, cls, tz, outcome = line.split(",")
    return _RECORD.pack(int(t), ACTIONS[action], float(lat), int(user),
                        CLASSES[cls], int(tz), OUTCOMES[outcome.strip()])


def _str(s):
    b = s.encode()
    return struct.pack("<H", len(b)) + b


def frame(payload):
    return struct.pack("<I", len(payload)) + payload


def hello():
    return frame(struct.pack("<BH", T_HELLO, PROTOCOL_VERSION))


def batch(service, region, rows):
    """A BATCH frame for one tenant from pre-encoded wire rows."""
    head = struct.pack("<B", T_BATCH) + _str(service) + _str(region)
    return frame(head + struct.pack("<I", len(rows)) + b"".join(rows))


class FrameReader:
    """Incremental decoder for gateway→agent frames."""

    def __init__(self):
        self.buf = b""

    def feed(self, data):
        self.buf += data
        out = []
        while len(self.buf) >= 4:
            (n,) = struct.unpack_from("<I", self.buf)
            if len(self.buf) < 4 + n:
                break
            payload, self.buf = self.buf[4:4 + n], self.buf[4 + n:]
            if payload[0] == T_ACK:
                out.append(("ack", struct.unpack_from("<Q", payload, 1)[0]))
            elif payload[0] == T_ERROR:
                (m,) = struct.unpack_from("<H", payload, 1)
                out.append(("error", payload[3:3 + m].decode(errors="replace")))
            else:
                out.append(("error", "unexpected frame type %d" % payload[0]))
        return out


class IngestConn:
    """A blocking stop-and-wait agent connection."""

    def __init__(self, addr, timeout=60.0):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = FrameReader()
        self.pending = []
        self.acked = 0
        self.send(hello())

    def send(self, data):
        """Send one frame and wait for its reply; returns the ACK count or
        raises on an ERROR frame."""
        self.sock.sendall(data)
        while not self.pending:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("gateway closed the ingest connection")
            self.pending.extend(self.reader.feed(chunk))
        kind, value = self.pending.pop(0)
        if kind != "ack":
            raise RuntimeError("gateway error: %s" % value)
        self.acked = value
        return value

    def close(self):
        self.sock.close()


def _request(addr, path):
    return ("GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" % (path, addr)).encode()


def parse_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def http_get(addr, path, timeout=120.0):
    """Blocking GET; returns ``(status, body)``."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(_request(addr, path))
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    return parse_response(b"".join(chunks))


def http_json(addr, path, timeout=120.0):
    status, body = http_get(addr, path, timeout)
    if status != 200:
        raise RuntimeError("GET %s -> %d: %s" % (path, status, body[:200]))
    return json.loads(body)


class AsyncGet:
    """A non-blocking GET driven by a selector loop, so one generator
    thread can poll the query plane without stalling its send schedule."""

    def __init__(self, addr, path, tag, due):
        host, port = addr.rsplit(":", 1)
        self.tag, self.due, self.path = tag, due, path
        self.started = time.monotonic()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = self.sock.connect_ex((host, int(port)))
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, "connect %s" % addr)
        self.out = _request(addr, path)
        self.chunks = []
        self.done_at = None

    def want_write(self):
        return bool(self.out)

    def on_writable(self):
        n = self.sock.send(self.out)
        self.out = self.out[n:]

    def on_readable(self):
        c = self.sock.recv(65536)
        if c:
            self.chunks.append(c)
            return False
        self.done_at = time.monotonic()
        self.sock.close()
        return True

    def response(self):
        return parse_response(b"".join(self.chunks))
