#!/usr/bin/env python3
"""Checks that a Chrome trace-event timeline nests properly.

    python3 scripts/check_timeline_nesting.py TIMELINE.json

Every `E` event must close the most recent open `B` of the same name on
its track (`tid`), and no slice may stay open at the end. Exits non-zero
with the offending event otherwise. Import `check_nesting` to run the
same check on events already loaded.
"""

import json
import sys
from collections import defaultdict


def check_nesting(events):
    """Asserts that every `E` in `events` closes the latest open `B` of
    its track and that nothing stays open."""
    open_slices = defaultdict(list)
    for e in events:
        if e["ph"] == "B":
            open_slices[e["tid"]].append(e["name"])
        elif e["ph"] == "E":
            stack = open_slices[e["tid"]]
            assert stack and stack[-1] == e["name"], (e, stack[-3:])
            stack.pop()
    unclosed = {tid: s for tid, s in open_slices.items() if s}
    assert not unclosed, unclosed


def main(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    check_nesting(events)
    print(f"{path}: every slice on every track nests properly")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
