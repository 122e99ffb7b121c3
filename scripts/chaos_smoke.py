#!/usr/bin/env python3
"""Chaos smoke test: kill a bench run mid-suite, resume, compare.

Two phases, both asserting the digest-invariance contract — a run that was
sabotaged and recovered must be indistinguishable (modulo timing fields)
from one that was never interrupted:

1. **Worker kill** (two worker processes): a scenario whose worker
   SIGKILLs itself on the first attempt is retried by
   :class:`ScenarioSupervisor` in a fresh worker and must produce the same
   summary digest as an uninterrupted run.
2. **Suite kill + resume** (subprocess): a ``repro bench`` run is
   SIGKILLed — process group and all, workers included — once its
   journal shows partial progress; ``repro bench --resume`` then finishes
   the suite and the final ``BENCH_<suite>.json`` must carry exactly the
   reference run's summary digests.

Exit code 0 on success, 1 on any divergence.  Environment knobs
(``REPRO_BENCH_HOURS`` etc.) pass through to the bench, so CI can shrink
the suite.  Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--suite scalability] [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.resilience import transient_fault_scenario  # noqa: E402
from repro.runner import (  # noqa: E402
    Scenario,
    ScenarioSupervisor,
    SupervisorConfig,
)


def log(message: str) -> None:
    print(f"[chaos-smoke] {message}", flush=True)


# ------------------------------------------------------- phase 1: worker kill


def phase_worker_kill(tmp: Path) -> bool:
    """SIGKILL a worker on its first attempt; the retry must digest equal."""
    inner = Scenario(
        name="relax_ref",
        task="relax_solve",
        params={"num_classes": 8, "num_types": 2, "W": 2, "seed": 0, "repeats": 1},
    )
    reference = ScenarioSupervisor("ref").run([inner], workers=1)["relax_ref"].digest()

    flaky = transient_fault_scenario(
        "relax_ref_killed", inner, tmp / "markers", fail_attempts=1, mode="kill"
    )
    config = SupervisorConfig(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)
    # The attempt kills its own process, so it must not be this one.
    report = ScenarioSupervisor("chaos", config).run([flaky], workers=2)

    if report.quarantined:
        log(f"FAIL: worker-kill scenario quarantined: {report.quarantined}")
        return False
    result = report["relax_ref_killed"]
    if result.attempts != 2:
        log(f"FAIL: expected 2 attempts (kill + retry), got {result.attempts}")
        return False
    if result.digest() != reference:
        log(
            "FAIL: recovered digest diverged from uninterrupted run: "
            f"{result.digest()} != {reference}"
        )
        return False
    log(f"worker kill: retried once, digest matches reference ({reference[:12]}...)")
    return True


# --------------------------------------------- phase 2: suite kill and resume


def bench_command(suite: str, workers: int, output: Path, resume: bool) -> list[str]:
    command = [
        sys.executable, "-m", "repro", "bench", suite,
        "--workers", str(workers), "--output", str(output),
    ]
    if resume:
        command.append("--resume")
    return command


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def find_journal(suite: str, directory: Path) -> Path | None:
    """The suite's journal file (its name carries a run-id component)."""
    candidates = sorted(directory.glob(f"JOURNAL_{suite}*.jsonl"))
    return candidates[0] if candidates else None


def complete_journal_lines(suite: str, directory: Path) -> int:
    """Scenario entries durably on disk (ignores header + torn tail)."""
    path = find_journal(suite, directory)
    if path is None:
        return 0
    raw = path.read_text(encoding="utf-8", errors="replace")
    return sum(
        1
        for line in raw.split("\n")[:-1]
        if line.strip() and '"kind":"header"' not in line
    )


def load_digests(bench_file: Path) -> dict[str, str]:
    payload = json.loads(bench_file.read_text())
    return {s["name"]: s["summary_digest"] for s in payload["scenarios"]}


def phase_suite_kill_resume(
    tmp: Path, suite: str, workers: int, kill_after: int, timeout: float
) -> bool:
    """SIGKILL a bench mid-suite; --resume must match reference."""
    ref_dir = tmp / "reference"
    log(f"reference run: bench {suite}")
    subprocess.run(
        bench_command(suite, workers, ref_dir, resume=False),
        env=bench_env(), check=True, stdout=subprocess.DEVNULL,
    )
    reference = load_digests(ref_dir / f"BENCH_{suite}.json")
    log(f"reference: {len(reference)} scenarios")

    chaos_dir = tmp / "chaos"
    log(f"chaos run: will SIGKILL after {kill_after} journaled scenario(s)")
    process = subprocess.Popen(
        bench_command(suite, workers, chaos_dir, resume=False),
        env=bench_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,  # so the kill takes workers down too
    )
    deadline = time.monotonic() + timeout
    try:
        while complete_journal_lines(suite, chaos_dir) < kill_after:
            if process.poll() is not None:
                log("FAIL: chaos run finished before it could be killed; "
                    "lower --kill-after or enlarge the suite")
                return False
            if time.monotonic() > deadline:
                log("FAIL: timed out waiting for journal progress")
                return False
            time.sleep(0.05)
        os.killpg(process.pid, signal.SIGKILL)
    finally:
        process.wait()
    journaled = complete_journal_lines(suite, chaos_dir)
    log(f"killed mid-suite with {journaled}/{len(reference)} scenarios journaled")
    if (chaos_dir / f"BENCH_{suite}.json").exists():
        log("FAIL: killed run should not have written its BENCH file yet")
        return False

    log("resume run: bench --resume")
    subprocess.run(
        bench_command(suite, workers, chaos_dir, resume=True),
        env=bench_env(), check=True, stdout=subprocess.DEVNULL,
    )
    resumed = load_digests(chaos_dir / f"BENCH_{suite}.json")
    if resumed != reference:
        diverged = sorted(
            name for name in reference.keys() | resumed.keys()
            if reference.get(name) != resumed.get(name)
        )
        log(f"FAIL: resumed digests diverged from reference for: {diverged}")
        return False
    log(f"resume: all {len(resumed)} digests match the uninterrupted reference")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="scalability")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--kill-after", type=int, default=3,
        help="journaled scenarios to wait for before the SIGKILL (default 3)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-phase budget in seconds (default 600)",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        ok = phase_worker_kill(tmp)
        ok = phase_suite_kill_resume(
            tmp, args.suite, args.workers, args.kill_after, args.timeout
        ) and ok
    log("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
