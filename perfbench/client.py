"""Closed-loop HTTP load from one busy-polling process.

Each connection is a keep-alive client that sends its next request
only after the previous answer arrived (callers that sweep design
points wait for each answer).  All connections draw from one shared,
seeded request sequence.  A warm-up phase runs first on the same
connections; only requests *sent* inside the measured phase count.
A failed request (an answer other than 200, a closed connection or a
timeout) is recorded as infinitely slow, so it misses every latency
limit.

The load generator is its own process at the lowest CPU priority
(nice 19) and busy-polls its non-blocking sockets instead of sleeping
in ``epoll``: an answer is read the moment it arrives, so the latency
it records never includes the wake-up of an idle load generator, and
the program under test still gets any CPU it asks for.  Its CPU share
is therefore about one by design; its *work* share (time from reading
an answer to having sent the next request) is what tells whether it,
not the program, set the pace.

Every ``STEAL_EVERY_S`` of the measured phase it reads the host's steal
counter and the program's CPU time, so latency and CPU per request can
be counted over the stretches the host left undisturbed
(:meth:`LoadResult.undisturbed`, :meth:`LoadResult.cpu_ms_per_op`).

Run by :func:`run_load`; as a script::

    client.py --port P --workload W --seed S --warmup-s X --seconds Y \\
        --out DIR [--near-grid FILE] [--pids P1,P2]
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import socket
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Keep-alive connections of the closed-loop client (one per vCPU of
#: the 2-vCPU host the benchmark was defined on).
CONNECTIONS = 2
#: Every ``SAMPLE_EVERY``-th measured answer is kept for the
#: correctness check, up to ``MAX_SAMPLES`` of them.
SAMPLE_EVERY = 50
MAX_SAMPLES = 200
#: An answer not complete this long after its request is a timeout.
TIMEOUT_S = 10.0
#: How often the host's steal counter is read during the measured phase.
STEAL_EVERY_S = 0.02
#: :meth:`LoadResult.undisturbed` keeps at least this many requests.
MIN_UNDISTURBED = 100


def host_steal() -> int:
    """Steal ticks of every vCPU of this machine, summed (``/proc/stat``)."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


@dataclass
class LoadResult:
    """What one warm-up + measured phase observed at the client."""

    seconds: float
    start_ns: int = 0
    end_ns: int = 0
    #: Latency of every measured request (``inf`` for a failure).
    latencies_s: List[float] = field(default_factory=list)
    #: When each measured request ended, in seconds after the measured
    #: phase began (same order as ``latencies_s``).
    done_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: The load generator's CPU seconds and work seconds (see module
    #: docstring) over warm-up + measured phase, and that phase's wall.
    cpu_s: float = 0.0
    work_s: float = 0.0
    wall_s: float = 0.0
    #: Readings taken every ``STEAL_EVERY_S`` from the start of the
    #: measured phase until its last answer: ``(seconds after the phase
    #: began, host steal ticks, CPU seconds of the program's processes)``.
    marks: List[Tuple[float, int, float]] = field(default_factory=list)
    #: Sampled measured answers: (index, path, body, status, response).
    samples: List[Tuple[int, str, bytes, int, bytes]] = field(
        default_factory=list
    )

    def answer(self, latency_s: float, done_s: float) -> None:
        """Count one measured request that ended ``done_s`` into the
        measured phase after ``latency_s``."""
        self.attempted += 1
        self.latencies_s.append(latency_s)
        self.done_s.append(done_s)

    def fail(self, done_s: float = 0.0) -> None:
        """Count one failed request; it misses every latency limit."""
        self.answer(math.inf, done_s)
        self.failed += 1

    def rates(self, window_s: float = 1.0) -> List[float]:
        """Answered requests per second in each ``window_s`` window."""
        slots = max(1, int(self.seconds / window_s))
        counts = [0] * slots
        for latency, done in zip(self.latencies_s, self.done_s):
            slot = int(done / window_s)
            if slot < slots and latency != math.inf:
                counts[slot] += 1
        return [count / window_s for count in counts]

    def undisturbed(self) -> List[float]:
        """Latencies of the requests the host let run undisturbed.

        A request is undisturbed when the host's steal counter (time
        the hypervisor kept a runnable vCPU of this machine off its
        CPU, ``/proc/stat``) did not move between the readings around
        it.  Stolen time is the host's, not the program's; on a shared
        host it comes in bursts that can stretch a whole run's
        latencies.  Should fewer than ``MIN_UNDISTURBED`` requests be
        undisturbed, the least disturbed ones are kept up to that
        count.  Failed requests are always kept.
        """
        times = [mark[0] for mark in self.marks]
        ticks = [mark[1] for mark in self.marks]
        failed = []
        stolen = []
        for latency, done in zip(self.latencies_s, self.done_s):
            if latency == math.inf:
                failed.append(latency)
                continue
            before = max(0, bisect.bisect_right(times, done - latency) - 1)
            after = min(len(times) - 1, bisect.bisect_left(times, done))
            stolen.append((ticks[after] - ticks[before], latency))
        if not stolen:
            return failed
        ranked = sorted(count for count, _latency in stolen)
        limit = ranked[min(len(ranked), MIN_UNDISTURBED) - 1]
        return [latency for count, latency in stolen
                if count <= limit] + failed

    def program_cpu_s(self) -> float:
        """CPU seconds the program used over the whole measured phase."""
        return self.marks[-1][2] - self.marks[0][2]

    def cpu_ms_per_op(self) -> Tuple[float, int, int]:
        """The program's CPU milliseconds per answered request.

        Counted over the windows between readings in which the host
        stole nothing: a stolen burst also slows the program's own CPU
        time (its caches are cold when it gets the vCPU back).  Should
        fewer than a quarter of the windows be undisturbed, the least
        disturbed quarter is used.  Returns ``(value, windows used,
        windows)``.
        """
        done = sorted(
            at for latency, at in zip(self.latencies_s, self.done_s)
            if latency != math.inf
        )
        windows = [
            (ticks1 - ticks0, cpu1 - cpu0,
             bisect.bisect_left(done, at1) - bisect.bisect_left(done, at0))
            for (at0, ticks0, cpu0), (at1, ticks1, cpu1)
            in zip(self.marks, self.marks[1:])
        ]
        if not windows:
            return math.nan, 0, 0
        ranked = sorted(stolen for stolen, _cpu, _ops in windows)
        limit = ranked[(len(ranked) - 1) // 4]
        kept = [(cpu, ops) for stolen, cpu, ops in windows if stolen <= limit]
        ops = sum(count for _cpu, count in kept)
        cpu = sum(seconds for seconds, _count in kept)
        return 1e3 * cpu / ops if ops else math.nan, len(kept), len(windows)


class _Connection:
    """One keep-alive connection with its request in flight."""

    def __init__(self, port: int):
        self.port = port
        self.sock = self._open()
        self.buffer = b""
        self.request = None
        self.sent = 0.0

    def _open(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        return sock

    def reopen(self) -> None:
        self.sock.close()
        self.sock = self._open()
        self.buffer = b""

    def answer(self) -> Optional[Tuple[int, bytes]]:
        """``(status, body)`` once the whole answer is buffered."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end + 4]
        at = head.find(b"Content-Length:")
        length = int(head[at + 15:head.find(b"\r", at)])
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = self.buffer[head_end + 4:end]
        self.buffer = self.buffer[end:]
        return int(head[9:12]), body


def drive(port: int, stream, warmup_s: float, seconds: float,
          pids: List[int]) -> LoadResult:
    """Drive ``stream`` at ``port``: warm-up, then ``seconds`` measured.

    ``pids`` are the program's processes, whose CPU time is read with
    the host's steal counter (see :attr:`LoadResult.marks`).
    """
    from procs import cpu_seconds
    from workloads import encode_request

    result = LoadResult(seconds=seconds)
    requests = iter(stream)
    wire: Dict[Tuple[str, bytes], bytes] = {}
    clock = time.perf_counter
    connections = [_Connection(port) for _ in range(CONNECTIONS)]
    cpu = time.process_time()
    start = clock()
    measure_at = start + warmup_s
    end_at = measure_at + seconds
    result.start_ns = int(measure_at * 1e9)
    result.end_ns = int(end_at * 1e9)

    def mark() -> None:
        result.marks.append(
            (clock() - measure_at, host_steal(), cpu_seconds(pids))
        )

    def send(conn: _Connection) -> None:
        request = next(requests)
        key = (request.path, request.body)
        blob = wire.get(key)
        if blob is None:
            blob = wire[key] = encode_request(request.path, request.body)
        conn.request = request
        conn.sent = clock()
        conn.sock.sendall(blob)

    try:
        for conn in connections:
            send(conn)
        _loop(connections, result, send, mark, measure_at, end_at)
        mark()
    finally:
        for conn in connections:
            conn.sock.close()
    result.wall_s = clock() - start
    result.cpu_s = time.process_time() - cpu
    return result


def _loop(connections, result: LoadResult, send, mark, measure_at: float,
          end_at: float) -> None:
    """Poll every connection until each has had its last answer."""
    clock = time.perf_counter
    busy = list(connections)
    next_mark = measure_at
    while busy:
        now = clock()
        if now >= next_mark:
            mark()
            next_mark = now + STEAL_EVERY_S
        for conn in list(busy):
            try:
                data = conn.sock.recv(65536)
            except BlockingIOError:
                if clock() - conn.sent < TIMEOUT_S:
                    continue
                data = None
            except ConnectionError:
                data = None
            got = None
            if data:
                conn.buffer += data
                try:
                    got = conn.answer()
                except ValueError:
                    data = None
                if got is None and data:
                    continue
            done = clock()
            measured = conn.sent >= measure_at
            if got is None:  # closed, reset, garbled or timed out
                if measured:
                    result.fail(done - measure_at)
                conn.reopen()
            elif measured:
                status, body = got
                if status == 200:
                    result.answer(done - conn.sent, done - measure_at)
                else:
                    result.fail(done - measure_at)
                request = conn.request
                if (
                    request.index % SAMPLE_EVERY == 0
                    and len(result.samples) < MAX_SAMPLES
                ):
                    result.samples.append(
                        (request.index, request.path, request.body, status,
                         body)
                    )
            if done >= end_at:
                busy.remove(conn)
                continue
            send(conn)
            result.work_s += clock() - done


def _save(result: LoadResult, out: Path) -> None:
    for name, values in (("latencies.bin", result.latencies_s),
                         ("done.bin", result.done_s)):
        with open(out / name, "wb") as handle:
            array("d", values).tofile(handle)
    meta = {
        key: getattr(result, key)
        for key in ("seconds", "start_ns", "end_ns", "attempted", "failed",
                    "cpu_s", "work_s", "wall_s", "marks")
    }
    meta["samples"] = [
        [index, path, body.decode(), status, answer.decode()]
        for index, path, body, status, answer in result.samples
    ]
    (out / "load.json").write_text(json.dumps(meta))


def _load(out: Path) -> LoadResult:
    meta = json.loads((out / "load.json").read_text())
    samples = meta.pop("samples")
    result = LoadResult(**meta)
    for name, target in (("latencies.bin", result.latencies_s),
                         ("done.bin", result.done_s)):
        values = array("d")
        with open(out / name, "rb") as handle:
            values.frombytes(handle.read())
        target.extend(values)
    result.samples = [
        (index, path, body.encode(), status, answer.encode())
        for index, path, body, status, answer in samples
    ]
    return result


def run_load(port: int, pids: List[int], workload: str, seed: int,
             near_grid: List[Tuple], warmup_s: float, seconds: float,
             out: Path, env: Dict[str, str]) -> LoadResult:
    """Run the load generator process and read back what it observed.

    ``pids`` are the program's processes; ``near_grid`` is the
    interpolable near-grid key pool of the materialized workloads
    (computed once by the caller).
    """
    out.mkdir(parents=True, exist_ok=True)
    (out / "near_grid.json").write_text(json.dumps(near_grid))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--port", str(port), "--workload", workload, "--seed", str(seed),
         "--warmup-s", repr(warmup_s), "--seconds", repr(seconds),
         "--out", str(out), "--near-grid", str(out / "near_grid.json"),
         "--pids", ",".join(str(pid) for pid in pids)],
        env=env, check=True,
        timeout=warmup_s + seconds + 2 * TIMEOUT_S + 60,
    )
    return _load(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="client.py")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup-s", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--near-grid")
    parser.add_argument("--pids", default="")
    args = parser.parse_args(argv)
    os.nice(19)
    import workloads

    if args.workload == "api-live":
        stream = workloads.LiveStream(args.seed)
    else:
        near = json.loads(Path(args.near_grid).read_text())
        stream = workloads.OnGridStream(
            args.seed, [tuple(key) for key in near]
        )
    result = drive(args.port, stream, args.warmup_s, args.seconds,
                   [int(pid) for pid in args.pids.split(",") if pid])
    _save(result, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
