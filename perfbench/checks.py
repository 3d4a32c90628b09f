"""Output checks of the end-to-end benchmark.

Every `simulate` of a timed run must print the stats and traffic lines
of an independent reference, and every served document must equal the
document batch `cache8t sweep` writes for the same plan. For the default
seed the references are checked-in digests (`digests.json`); for any
other seed they are computed after the timed region. A mismatch, a
non-zero exit or a job that did not complete counts as a failed
operation.
"""

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 42


class StaleDigests(RuntimeError):
    """`digests.json` was written for other workload sizes."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stats_lines(out):
    """The traffic and request-stats lines `cache8t simulate` prints, or
    `None` when either is missing."""
    lines = [line.strip() for line in out.splitlines()
             if line.startswith("  array accesses") or line.startswith("  requests:")]
    return "\n".join(lines) if len(lines) == 2 else None


def simulate_ok(proc, expected):
    lines = stats_lines(proc.out)
    return proc.code == 0 and lines is not None and digest(lines) == expected


def document_digest(document):
    """Digest of a sweep document, independent of its JSON layout."""
    return digest(json.dumps(document, sort_keys=True, separators=(",", ":")))


def load_digests(workload, key):
    """The checked-in digests of `workload`, refusing ones written for
    another workload key (sizes, profiles, geometry)."""
    entry = json.loads(DIGESTS.read_text())[workload]
    if entry["key"] != key:
        raise StaleDigests(f"{DIGESTS.name} holds {workload} digests for {entry['key']}, not {key}")
    return entry["digests"]


def reference_simulate(run, argv):
    """Digest of a reference `simulate`'s stats lines."""
    p = run(*argv)
    lines = stats_lines(p.out)
    if p.code != 0 or lines is None:
        raise RuntimeError(f"reference run failed: {' '.join(map(str, argv))}")
    return digest(lines)


def reference_sweep(run, cache8t, plan, out):
    """Digest of the document `cache8t sweep` writes for a served plan
    (the series cadence never enters the document)."""
    p = run(cache8t, "sweep", "--profiles", ",".join(plan["profiles"]),
            "--geometries", ",".join(plan["geometries"]), "--ops", plan["ops"],
            "--seed", plan["seed"], "--jobs", 1, "--trace-store", "off", "--out", out)
    if p.code != 0:
        raise RuntimeError(f"reference sweep failed for seed {plan['seed']}")
    return document_digest(json.loads(Path(out).read_text()))


def served_failures(jobs, expected):
    """Served jobs that failed: not completed, an error answer to
    `results`, or a document unlike the reference."""
    failed = 0
    for job in jobs:
        try:
            response = json.loads(job.results)
        except ValueError:
            response = {}
        ok = (job.state == "completed" and response.get("ok") is True
              and "document" in response
              and document_digest(response["document"]) == expected[job.plan_index])
        failed += not ok
    return failed
