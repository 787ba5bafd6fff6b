#!/usr/bin/env python3
"""CI smoke check for the observability surface.

Validates the artifacts of `threatraptor_cli hunt ... --explain-analyze
--profile-json profile.json --metrics-export`:

- the profile JSONL parses, and its first span tree is rooted at `hunt`
  with a non-negative duration and an `execute` child;
- the captured stdout contains the expected Prometheus metric families.

Usage: check_obs_smoke.py PROFILE.jsonl CAPTURED_STDOUT.txt
"""
import json
import sys

EXPECTED_METRICS = (
    "raptor_hunts_submitted_total",
    "raptor_hunts_rejected_total",
    "raptor_hunt_latency_micros",
    "raptor_queue_wait_micros",
    "raptor_admission_queue_depth",
    "raptor_tenant_submitted_total",
    "raptor_standing_hunts",
    "raptor_wal_bytes_total",
)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        trees = [json.loads(line) for line in f if line.strip()]
    assert trees, "profile JSONL is empty"
    root = trees[0]
    assert root["name"] == "hunt", f"root span is {root.get('name')!r}"
    assert root["duration_us"] >= 0, root
    children = root.get("children", [])
    assert any(c.get("name") == "execute" for c in children), (
        f"no execute child under hunt: {[c.get('name') for c in children]}"
    )
    with open(sys.argv[2], encoding="utf-8") as f:
        metrics = f.read()
    missing = [m for m in EXPECTED_METRICS if m not in metrics]
    assert not missing, f"missing metric families: {missing}"
    print(
        f"profile ok ({len(trees)} span tree(s), root {root['duration_us']} "
        f"us); {len(EXPECTED_METRICS)} expected metric families present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
