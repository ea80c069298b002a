"""Small shared pieces of the demaq-e2e benchmark: paths, a clean
environment for child processes, the handle on a SUT child process,
percentiles, and the span log."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
APPS = os.path.join(HERE, "apps")
#: Everything a run writes (temp stores, spans, results) stays in here.
OUT = os.path.join(HERE, "out")


def clean_env() -> dict[str, str]:
    """The environment every SUT process runs in: no ``DEMAQ_*`` switch
    leaks in from the caller (configuration is explicit kwargs only),
    ``repro`` resolves to this checkout's ``src/``, and string hashing
    is fixed so dict and set layouts — and with them a per cent or two
    of speed — do not change from one process to the next."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("DEMAQ_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def scrub_demaq_env() -> None:
    for key in [k for k in os.environ if k.startswith("DEMAQ_")]:
        del os.environ[key]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; *p* in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def flat_delta(before: dict, after: dict) -> dict[str, float]:
    """after - before over two flattened registry snapshots."""
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in set(before) | set(after)}


def time_setup_only(script: str, spec: dict, workdir: str, tag: str) -> float:
    """Process start -> READY of one SUT that sets up and exits again."""
    sut = SutProcess(script, dict(spec, setup_only=True), workdir, tag)
    try:
        sut.wait()
    finally:
        sut.kill()
    return sut.setup_s


class SpanLog:
    """In-memory spans around the calls the benchmark itself makes.

    One span is ``[name, start_ns, end_ns, parent, request_id]`` where
    *parent* is the index of the causing span (or None).  Nothing is
    written until :meth:`write`, after the run.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int | None = None, request_id: str | None = None) -> int:
        self.spans.append([name, start_ns, end_ns, parent, request_id])
        return len(self.spans) - 1

    def durations_us(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1000.0 for s in self.spans if s[0] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request_id"],
                       "spans": self.spans}, handle)


class SutProcess:
    """One SUT child process: started, timed to its first line, reaped.

    The child runs in a session of its own so that :meth:`kill` can
    sweep it together with any worker processes it spawned.
    """

    def __init__(self, script: str, spec: dict, workdir: str, tag: str,
                 timeout: float = 150.0):
        spec_path = os.path.join(workdir, f"spec-{tag}.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        self.tag, self.timeout = tag, timeout
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, script, spec_path], env=clean_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        #: the words of the READY line, e.g. ["READY"] or ["READY", port]
        self.ready = self.proc.stdout.readline().split()
        #: process start -> READY
        self.setup_s = time.perf_counter() - started
        if not self.ready or self.ready[0] != "READY":
            self.kill()
            raise RuntimeError(f"SUT {tag} did not come up: {self.ready}")

    def expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            self.kill()
            raise RuntimeError(f"SUT {self.tag} said {line!r}, not {word!r}")

    def tell(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def wait(self) -> None:
        """Let the child finish by itself; anything else is an error."""
        try:
            self.proc.communicate(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"SUT {self.tag} exited with code "
                               f"{self.proc.returncode}")

    def kill(self) -> None:
        """Make sure the child and everything it spawned are gone."""
        if self.proc.poll() is None:
            # SIGTERM first: a gateway SUT stops its own workers on it.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)    # stragglers
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.communicate()
