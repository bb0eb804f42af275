"""Handles on the benchmark's child processes and the server's control port."""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import queue
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

__all__ = ["BenchError", "ControlClient", "ServerProcess", "WriterProcess"]

#: Longest wait for one reply; every command answers in well under a
#: second, so hitting this means the other side is wedged.
CONTROL_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (not a failed operation)."""


class ControlClient:
    """Line-delimited JSON requests to a server host's control port."""

    def __init__(self, port: int, timeout: float = CONTROL_TIMEOUT_S) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._lines = self._sock.makefile("r", encoding="utf-8")
        self._lock = threading.Lock()

    def call(self, op: str, **fields) -> Dict:
        with self._lock:
            try:
                self._sock.sendall((json.dumps({"op": op, **fields}) + "\n").encode("utf-8"))
                line = self._lines.readline()
            except OSError as exc:
                raise BenchError(f"server control port: {exc}") from None
        if not line:
            raise BenchError("server host closed its control port")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"server host: {reply.get('error')}")
        return reply

    def close(self) -> None:
        self._lines.close()
        self._sock.close()


class _Child:
    """A ``python -m cqbench.<module>`` child answering JSON lines on stdout.

    Closing its stdin tells the child to finish; :meth:`stop` does that
    and waits, killing the child if it does not exit in time.
    """

    def __init__(self, root: pathlib.Path, module: str, args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"cqbench.{module}", *args],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._pump = threading.Thread(target=self._read_lines, daemon=True)
        self._pump.start()

    def _read_lines(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, **fields) -> None:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(json.dumps(fields) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"child process stdin: {exc}") from None

    def reply(self, timeout: float = CONTROL_TIMEOUT_S) -> Dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.proc.args[2]} did not answer in time") from None
        if line is None:
            raise BenchError(f"{self.proc.args[2]} exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"{self.proc.args[2]}: {reply.get('error')}")
        return reply

    def stop(self) -> None:
        """Close stdin, wait for the exit (kill after 15 s). Idempotent."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServerProcess(_Child):
    """A running :mod:`cqbench.serverhost` and a connection to its control port.

    ``ready`` is the ``perf_counter`` stamp of its ready line (listening,
    prewarmed when asked).
    """

    def __init__(
        self, root: pathlib.Path, store: pathlib.Path, cache_size: int, prewarm: bool
    ) -> None:
        args = [str(store), "--cache-size", str(cache_size)] + (["--prewarm"] if prewarm else [])
        super().__init__(root, "serverhost", args)
        self.control: Optional[ControlClient] = None
        try:
            hello = self.reply()
            self.ready = time.perf_counter()
            self.control = ControlClient(hello["control_port"])
        except BaseException:
            self.stop()
            raise
        self.port: int = hello["port"]
        self.control_port: int = hello["control_port"]
        self.prewarm_s: float = hello["prewarm_s"]
        self.address = ("127.0.0.1", self.port)

    def call(self, op: str, **fields) -> Dict:
        assert self.control is not None
        return self.control.call(op, **fields)

    def stop(self) -> None:
        if self.control is not None:
            self.control.close()
            self.control = None
        super().stop()


class WriterProcess(_Child):
    """A :mod:`cqbench.writerhost` that recalibrates on command.

    The constructor only spawns the host, so its start-up overlaps
    whatever the caller does next, until :meth:`wait_ready`.
    """

    def __init__(
        self, root: pathlib.Path, store: pathlib.Path, server: ServerProcess, seed: int, out: pathlib.Path
    ) -> None:
        args = [
            str(store),
            "--port", str(server.port),
            "--control-port", str(server.control_port),
            "--seed", str(seed),
            "--out", str(out),
        ]
        super().__init__(root, "writerhost", args)
        self.out = out
        self._running = 0  # run commands not yet answered

    def wait_ready(self) -> None:
        self.reply()

    def start(self, period_s: float, seconds: float, steps: int) -> None:
        """Begin recalibrating now: ``steps`` steps, one per ``period_s``,
        none starting more than ``seconds`` from now."""
        self.send(op="run", period_s=period_s, seconds=seconds, steps=steps)
        self._running += 1

    def steps(self, n: int) -> None:
        """Run ``n`` steps back to back and wait for them."""
        self.start(0.0, CONTROL_TIMEOUT_S, n)
        self.reply()
        self._running -= 1

    def finish(self, timeout: float) -> Dict:
        """Wait for the steps under way to end; returns what the writer recorded."""
        self.send(op="finish")
        for _ in range(self._running + 1):
            self.reply(timeout)
        self._running = 0
        with open(self.out, "rb") as handle:
            return pickle.load(handle)  # written by this benchmark's writer host
