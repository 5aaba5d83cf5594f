"""Processes under test: launch, readiness, /proc readings, shutdown.

Everything here reads Linux ``/proc``: CPU time and peak resident
memory of a process tree, and the child list that finds fleet workers
under the router.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

_TICK = os.sysconf("SC_CLK_TCK")
#: How long a stopping process tree gets before it is killed.
STOP_TIMEOUT_S = 20.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                text = Path(
                    f"/proc/{current}/task/{tid}/children"
                ).read_text()
            except OSError:
                continue
            found.extend(int(child) for child in text.split())
    return found


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = text.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def memory_mb(pids: Sequence[int], field: str) -> float:
    """One ``/proc/<pid>/status`` memory field of ``pids``, summed, in MB.

    ``VmHWM`` is the high-water resident memory, file-backed pages
    included; ``RssAnon`` is the resident anonymous (heap) memory now.
    """
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith(field + ":"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def canary_ms(iterations: int = 1_000_000) -> float:
    """Wall time of a fixed pure-Python loop: a gauge of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class Program:
    """One launched program (server, router, or campaign process)."""

    def __init__(
        self,
        argv: List[str],
        env: Dict[str, str],
        cwd: Path,
        log_path: Path,
        stdin=None,
        stdout=None,
    ):
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(cwd),
            env=env,
            stdin=stdin,
            stdout=stdout if stdout is not None else self._log,
            stderr=self._log,
        )
        self._tree: List[int] = [self.proc.pid]

    def tree(self) -> List[int]:
        """The program's processes (remembered, so exits do not hide
        workers from the final stop)."""
        live = descendants(self.proc.pid)
        self._tree = sorted(set(self._tree) | set(live))
        return live

    def alive(self) -> bool:
        return self.proc.poll() is None

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, then kill whatever is left."""
        self.tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5)
        others = [pid for pid in self._tree if pid != self.proc.pid]
        _wait_gone(others, 5.0)
        for pid in others:
            if _exists(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        _wait_gone(others, 5.0)
        self._log.close()


def _exists(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def _wait_gone(pids: Sequence[int], timeout_s: float) -> None:
    """Wait until none of ``pids`` runs (a zombie counts as gone)."""
    deadline = time.monotonic() + timeout_s
    while any(_exists(pid) for pid in pids):
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)


def wait_listening(port: int, program: Program, timeout_s: float) -> None:
    """Return once ``port`` accepts connections (polled every 2 ms)."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            if not program.alive():
                raise RuntimeError(
                    f"program exited before listening:\n"
                    f"{program.log_tail()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"port {port} never opened")
            time.sleep(0.002)


def post_all(
    port: int, requests: Sequence[Tuple[str, bytes]], timeout_s: float
) -> List[Tuple[int, bytes]]:
    """Send every request on its own connection, then read each answer.

    All requests are in flight at once, so a fleet answers them on
    different workers concurrently.
    """
    conns = []
    for path, body in requests:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout_s
        )
        conn.request(
            "POST", path, body, {"Content-Type": "application/json"}
        )
        conns.append(conn)
    answers = []
    for conn in conns:
        response = conn.getresponse()
        answers.append((response.status, response.read()))
        conn.close()
    return answers


def get_json(port: int, path: str, timeout_s: float = 30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path} answered {response.status}")
    return json.loads(body)


def python_env(checkout: Path, tmp_dir: Path) -> Dict[str, str]:
    """The environment every launched program gets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["TMPDIR"] = str(tmp_dir)
    env.pop("PERFBENCH_TRACE_DIR", None)
    return env
