"""``POST /shutdown`` finishes its reply before the daemon exits.

The acknowledgement is written by the request thread while a second
thread stops the listener, and ``repro-serve`` exits once the listener
has stopped.  Each case below boots a real daemon in a subprocess,
sends ``POST /shutdown`` over a raw socket, reads exactly
``Content-Length`` body bytes and then waits for a clean exit; a
daemon that could exit before the reply was written fails it with a
short or empty read.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
ROUNDS = 20
#: daemons booted side by side, so 20 rounds take a few seconds
BATCH = 4


def _boot() -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True,
    )


def _port(daemon: subprocess.Popen) -> int:
    line = daemon.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    assert match, f"no listening line: {line!r}"
    return int(match.group(1))


def _read_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            break
        data += chunk
    return data


def _shutdown(port: int) -> tuple:
    """``(status line, body bytes)`` of one raw ``POST /shutdown``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            b"POST /shutdown HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        )
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = sock.recv(1)
            assert chunk, f"connection closed inside the headers: {head!r}"
            head += chunk
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1]) for line in lines
            if line.lower().startswith("content-length:")
        )
        return lines[0], _read_exactly(sock, length), length


@pytest.mark.parametrize("batch", range(ROUNDS // BATCH))
def test_shutdown_reply_is_complete_and_the_daemon_exits_cleanly(batch):
    daemons = [_boot() for _ in range(BATCH)]
    try:
        for daemon in daemons:
            status, body, length = _shutdown(_port(daemon))
            assert status.split()[1] == "202", status
            assert len(body) == length, (body, length)
            assert json.loads(body) == {"draining": True, "in_flight": 0}
        for daemon in daemons:
            assert daemon.wait(timeout=20) == 0
    finally:
        for daemon in daemons:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
