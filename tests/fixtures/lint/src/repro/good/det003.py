"""DET003-clean: set and dict.keys() iteration goes through sorted()."""

import hashlib


def emit(rows):
    for label in sorted({"b", "a", "c"}):
        print(label)
    names = [r for r in sorted(set(rows))]
    return sorted({row.key for row in rows}), names


def labels(tags: set) -> list:
    ordered = []
    for tag in sorted(tags):
        ordered.append(str(tag))
    return ordered


def key_order(counts: dict) -> list:
    return [name for name in sorted(counts.keys())]


def roll_up(reports: list) -> str:
    shard_digests = {report["digest"] for report in reports}
    joined = "".join(d for d in sorted(shard_digests))
    return hashlib.sha256(joined.encode()).hexdigest()


def frozen(tags: frozenset) -> tuple:
    return tuple(sorted(tags))
