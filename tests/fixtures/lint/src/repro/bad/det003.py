"""DET003 triggers: unsorted iteration over sets and dict.keys()."""

import hashlib


def emit(rows):
    for label in {"b", "a", "c"}:
        print(label)
    names = [r.name for r in set(rows)]
    return list({row.key for row in rows}), names


def labels(tags: set) -> list:
    ordered = []
    for tag in tags:
        ordered.append(str(tag))
    return ordered


def key_order(counts: dict) -> list:
    return [name for name in counts.keys()]


def roll_up(reports: list) -> str:
    shard_digests = {report["digest"] for report in reports}
    joined = "".join(d for d in shard_digests)
    return hashlib.sha256(joined.encode()).hexdigest()


def frozen(tags: frozenset) -> tuple:
    return tuple(tags)
