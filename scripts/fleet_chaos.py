#!/usr/bin/env python3
"""Fleet chaos drill: kill a shard worker, then the coordinator; resume.

Three phases, all asserting the fleet's digest-invariance contract — a
sharded run that was sabotaged and recovered must merge to exactly the
bytes of a run that was never interrupted, with an empty quarantine:

1. **Reference** (in-process): one uninterrupted serial ``run_fleet`` —
   the merged fleet digest everything else must reproduce.
2. **Shard-worker kill** (worker processes): one shard's worker SIGKILLs
   itself on its first attempt; :class:`ScenarioSupervisor` retries the
   shard in a fresh worker and the re-merged fleet digest must match the
   reference.
3. **Coordinator kill + resume** (subprocess): a ``repro fleet`` run is
   SIGKILLed — process group and all, shard workers and the worker
   template they are forked from included — once its suite journal shows
   partial progress, and no process of that group may survive the kill;
   ``repro fleet --resume`` then finishes the fleet, leaves no process of
   its own behind once it exits, and the final
   ``BENCH_google_fleet.json`` must carry the reference digest with
   ``partial: false`` and no missing shards.

Exit code 0 on success, 1 on any divergence.  Environment knobs
(``REPRO_BENCH_FLEET_*``) pass through, so CI can shrink the fleet::

    PYTHONPATH=src python scripts/fleet_chaos.py [--shards 3] [--workers 2]
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

from repro.fleet import (  # noqa: E402
    FleetConfig,
    fleet_scenarios,
    merge_fleet_report,
    run_fleet,
)
from repro.resilience import transient_fault_scenario  # noqa: E402
from repro.runner import (  # noqa: E402
    ScenarioSupervisor,
    SupervisorConfig,
    google_fleet_trace_params,
)

SUITE = "google_fleet"


def log(message: str) -> None:
    print(f"[fleet-chaos] {message}", flush=True)


# ------------------------------------------------------ phase 2: shard kill


def phase_shard_kill(tmp: Path, shards: int, workers: int, reference: str) -> bool:
    """SIGKILL one shard worker on attempt 1; the re-merge must digest equal."""
    scenarios = list(
        fleet_scenarios(google_fleet_trace_params(), FleetConfig(shards=shards))
    )
    victim = scenarios[shards // 2]
    # Keep the victim's name: the fleet digest is keyed per shard name.
    scenarios[shards // 2] = transient_fault_scenario(
        victim.name, victim, tmp / "markers", fail_attempts=1, mode="kill"
    )
    config = SupervisorConfig(backoff_base_seconds=0.01, backoff_cap_seconds=0.05)
    report = ScenarioSupervisor(SUITE, config).run(scenarios, workers=workers)

    if report.quarantined:
        log(f"FAIL: shard-kill run quarantined: {report.quarantined}")
        return False
    if report[victim.name].attempts != 2:
        log(f"FAIL: expected 2 attempts (kill + respawn), "
            f"got {report[victim.name].attempts}")
        return False
    fleet = merge_fleet_report(SUITE, shards, report)
    if fleet.partial or fleet.digest != reference:
        log(f"FAIL: re-merged digest diverged: {fleet.digest} != {reference}")
        return False
    log(f"shard kill: {victim.name} respawned once, fleet digest matches "
        f"({reference[:12]}...)")
    return True


# ----------------------------------------- phase 3: coordinator kill + resume


def fleet_command(shards: int, workers: int, output: Path, resume: bool) -> list[str]:
    command = [
        sys.executable, "-m", "repro", "fleet",
        "--shards", str(shards), "--workers", str(workers),
        "--output", str(output),
    ]
    if resume:
        command.append("--resume")
    return command


def fleet_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


#: How long the processes of a killed or finished run get to end.
EXIT_GRACE_S = 5.0


def live_group_members(pgid: int) -> list[int]:
    """Pids of the live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp ..."; comm may itself hold ")".
        state, _, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def group_outlived(pgid: int) -> list[int]:
    """The processes of group ``pgid`` still alive ``EXIT_GRACE_S`` on."""
    deadline = time.monotonic() + EXIT_GRACE_S
    while (members := live_group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


def complete_journal_lines(directory: Path) -> int:
    """Shard entries durably in the suite journal (ignores header + torn tail)."""
    candidates = sorted(directory.glob(f"JOURNAL_{SUITE}*.jsonl"))
    if not candidates:
        return 0
    raw = candidates[0].read_text(encoding="utf-8", errors="replace")
    return sum(
        1
        for line in raw.split("\n")[:-1]
        if line.strip() and '"kind":"header"' not in line
    )


def phase_coordinator_kill_resume(
    tmp: Path,
    shards: int,
    workers: int,
    kill_after: int,
    timeout: float,
    reference: str,
) -> bool:
    """SIGKILL the whole fleet mid-run; --resume must reproduce the reference."""
    chaos_dir = tmp / "chaos"
    log(f"chaos run: will SIGKILL the fleet after {kill_after} journaled shard(s)")
    process = subprocess.Popen(
        fleet_command(shards, workers, chaos_dir, resume=False),
        env=fleet_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,  # so the kill takes shard workers down too
    )
    deadline = time.monotonic() + timeout
    try:
        while complete_journal_lines(chaos_dir) < kill_after:
            if process.poll() is not None:
                log("FAIL: chaos run finished before it could be killed; "
                    "lower --kill-after or enlarge the fleet")
                return False
            if time.monotonic() > deadline:
                log("FAIL: timed out waiting for journal progress")
                return False
            time.sleep(0.05)
        os.killpg(process.pid, signal.SIGKILL)
    finally:
        process.wait()
    journaled = complete_journal_lines(chaos_dir)
    log(f"killed coordinator+workers with {journaled}/{shards} shards journaled")
    survivors = group_outlived(process.pid)
    if survivors:
        log(f"FAIL: processes of the killed fleet survived the kill: {survivors}")
        return False
    if (chaos_dir / f"BENCH_{SUITE}.json").exists():
        log("FAIL: killed run should not have written its BENCH file yet")
        return False

    log("resume run: repro fleet --resume")
    resumed = subprocess.Popen(
        fleet_command(shards, workers, chaos_dir, resume=True),
        env=fleet_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,  # so what it leaves behind can be found
    )
    if resumed.wait() != 0:
        log(f"FAIL: resume run exited {resumed.returncode}")
        return False
    leftovers = group_outlived(resumed.pid)
    if leftovers:
        log(f"FAIL: processes outlived the finished resume run: {leftovers}")
        return False
    payload = json.loads((chaos_dir / f"BENCH_{SUITE}.json").read_text())
    fleet = payload["fleet"]
    if fleet["partial"] or fleet["missing"]:
        log(f"FAIL: resumed fleet is a partial merge: missing {fleet['missing']}")
        return False
    if fleet["digest"] != reference:
        log(f"FAIL: resumed fleet digest diverged: "
            f"{fleet['digest']} != {reference}")
        return False
    log(f"resume: fleet digest matches the uninterrupted reference, "
        f"quarantine empty ({reference[:12]}...)")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="shard worker processes, >= 2: a shard kills its own process "
             "(default 2)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=1,
        help="journaled shards to wait for before the SIGKILL (default 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="budget for the chaos phase in seconds (default 600)",
    )
    args = parser.parse_args()
    if args.workers < 2:
        parser.error("--workers must be >= 2: at --workers 1 shards run in "
                     "this process, which the shard kill would end")

    log(f"reference run: {args.shards} shard(s), serial, in-process")
    reference = run_fleet(
        google_fleet_trace_params(), FleetConfig(shards=args.shards), workers=1
    )
    if reference.partial or reference.digest is None:
        log("FAIL: reference run did not merge cleanly")
        return 1
    log(f"reference fleet digest {reference.digest[:12]}...")

    with tempfile.TemporaryDirectory(prefix="fleet-chaos-") as tmpdir:
        tmp = Path(tmpdir)
        ok = phase_shard_kill(tmp, args.shards, args.workers, reference.digest)
        ok = phase_coordinator_kill_resume(
            tmp, args.shards, args.workers, args.kill_after, args.timeout,
            reference.digest,
        ) and ok
    log("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
