#!/usr/bin/env python3
"""Serve chaos smoke: SIGKILL a live daemon under fault injection, restart,
verify /healthz recovers and the final digest matches an uninterrupted run.

Three phases against the same synthetic trace and the ``drill`` chaos
preset (capacity blackout + correlated outage + partial partition +
solver outage + injected control-step crashes):

1. **Reference**: ``repro serve`` runs the stream end to end, undisturbed.
2. **Kill**: a paced daemon (``--tick-delay``) with a live ``/healthz``
   endpoint is SIGKILLed once its write-ahead journal shows partial
   progress — no graceful shutdown, possibly a torn tail.
3. **Restart**: ``repro serve --restore`` resumes over the same state
   directory; the probe asserts ``/healthz`` answers 200 while the
   resumed loop runs.  The drill's control-step crash fires in this
   daemon, so its event log must show both failed attempts (each rolled
   back through checkpoint + journal replay), and the final summary
   (chain digest included) must equal the reference bit for bit.

Exit code 0 on success, 1 on any divergence.  Runtime is a few seconds
of compute plus the pacing delays — well inside a 5-minute CI budget::

    PYTHONPATH=src python scripts/serve_chaos.py [--hours 2] [--kill-after 5]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The drill preset's ``ControlCrash(tick=18, attempts=2)``.
CRASH_TICK, CRASH_ATTEMPTS = 18, 2


def log(message: str) -> None:
    print(f"[serve-chaos] {message}", flush=True)


def serve_command(state_dir: Path, hours: float, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--state-dir", str(state_dir),
        "--hours", str(hours), "--seed", "13", "--load", "0.8",
        "--chaos", "drill", "--checkpoint-interval", "3",
        *extra,
    ]


def serve_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def journaled_ticks(state_dir: Path) -> int:
    """Complete (newline-terminated) tick records durably on disk."""
    journals = list(state_dir.glob("TICKS_*.jsonl"))
    if not journals:
        return 0
    raw = journals[0].read_text(encoding="utf-8", errors="replace")
    return sum(
        1
        for line in raw.split("\n")[:-1]
        if line.strip() and '"kind":"header"' not in line
    )


def events(state_dir: Path) -> list[dict]:
    """Every complete line of the run's event log, oldest first.

    The event log survives restarts, so it holds every incarnation's
    events; a SIGKILL may leave a torn last line, which is skipped.
    """
    found = []
    for log_file in state_dir.glob("EVENTS_*.jsonl"):
        for line in log_file.read_text(errors="replace").splitlines():
            try:
                found.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return found


def http_port(state_dir: Path) -> int | None:
    """The live daemon's health port: the LAST ``http_listening`` event."""
    ports = [e["port"] for e in events(state_dir) if e["event"] == "http_listening"]
    return int(ports[-1]) if ports else None


def crash_rollbacks(state_dir: Path) -> int:
    """``control_step_failed`` events at the crash tick since the restore."""
    logged = events(state_dir)
    restored = max(i for i, e in enumerate(logged) if e["event"] == "restored")
    return sum(
        1
        for e in logged[restored:]
        if e["event"] == "control_step_failed" and e["tick"] == CRASH_TICK
    )


def probe_healthz(port: int) -> int | None:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=1.0
        ) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code
    except (urllib.error.URLError, OSError):
        return None


def phase_reference(tmp: Path, hours: float) -> dict:
    log("reference run: undisturbed stream under drill chaos")
    result = subprocess.run(
        serve_command(tmp / "reference", hours),
        env=serve_env(), capture_output=True, text=True, check=True, timeout=240,
    )
    summary = json.loads(result.stdout)
    log(f"reference: {summary['ticks']} ticks, chain {summary['chain'][:12]}...")
    return summary


def phase_kill(tmp: Path, hours: float, kill_after: int, timeout: float) -> Path:
    state_dir = tmp / "chaos"
    log(f"chaos run: will SIGKILL after {kill_after} journaled tick(s)")
    process = subprocess.Popen(
        serve_command(state_dir, hours, "--tick-delay", "0.15", "--http-port", "0"),
        env=serve_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    saw_healthy = False
    try:
        while journaled_ticks(state_dir) < kill_after:
            if process.poll() is not None:
                raise RuntimeError(
                    "daemon exited before the kill: "
                    + process.stderr.read().decode(errors="replace")
                )
            if time.monotonic() > deadline:
                raise RuntimeError("timed out waiting for journal progress")
            port = http_port(state_dir)
            if port is not None and probe_healthz(port) == 200:
                saw_healthy = True
            time.sleep(0.05)
        process.kill()
    finally:
        process.wait()
    if not saw_healthy:
        raise RuntimeError("/healthz never answered 200 before the kill")
    log(
        f"killed with {journaled_ticks(state_dir)} ticks journaled, "
        "/healthz was 200 beforehand"
    )
    return state_dir


def phase_restart(state_dir: Path, hours: float, reference: dict) -> bool:
    log("restart: repro serve --restore over the survivor state dir")
    process = subprocess.Popen(
        serve_command(
            state_dir, hours,
            "--restore", "--tick-delay", "0.15", "--http-port", "0",
        ),
        env=serve_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    recovered = False
    while process.poll() is None:
        port = http_port(state_dir)
        if port is not None and probe_healthz(port) == 200:
            recovered = True
        time.sleep(0.05)
    stdout, stderr = process.communicate()
    if process.returncode != 0:
        log(f"FAIL: restore run exited {process.returncode}: {stderr.strip()}")
        return False
    if not recovered:
        log("FAIL: /healthz never recovered to 200 during the restored run")
        return False
    rollbacks = crash_rollbacks(state_dir)
    if rollbacks != CRASH_ATTEMPTS:
        log(
            f"FAIL: restored run logged {rollbacks} control_step_failed "
            f"event(s) at tick {CRASH_TICK}, expected {CRASH_ATTEMPTS}"
        )
        return False
    summary = json.loads(stdout)
    if summary != reference:
        diverged = sorted(
            key for key in reference.keys() | summary.keys()
            if reference.get(key) != summary.get(key)
        )
        log(f"FAIL: restored summary diverged from reference on: {diverged}")
        return False
    log(
        f"restored run: /healthz recovered, {rollbacks} rollbacks at tick "
        f"{CRASH_TICK}, {summary['ticks']} ticks, chain matches reference "
        f"({summary['chain'][:12]}...)"
    )
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hours", type=float, default=2.0)
    parser.add_argument(
        "--kill-after", type=int, default=5,
        help="journaled ticks to wait for before the SIGKILL (default 5)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="kill-phase budget in seconds (default 120)",
    )
    args = parser.parse_args()
    if args.kill_after >= CRASH_TICK:
        parser.error(f"--kill-after must be below the drill's crash tick {CRASH_TICK}")

    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as tmpdir:
        tmp = Path(tmpdir)
        reference = phase_reference(tmp, args.hours)
        state_dir = phase_kill(tmp, args.hours, args.kill_after, args.timeout)
        ok = phase_restart(state_dir, args.hours, reference)
    log("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
