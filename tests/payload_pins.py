"""Every pinned ``verify`` payload, key order included: each check at n = 5,
which tier-1 runs in-process, and each at its ceiling, with phi-injective
over every reduced expression at ``ALL_EXPR_CEILING``, which
``PYTHONPATH=src python tests/payload_pins.py`` runs through the CLI.
Tier-1 fails unless the ceiling rows are exactly the ceilings in ``CHECKS``.
"""

import json
import resource
import subprocess
import sys

from invlat.verify import ALL_EXPR_CEILING, CHECKS

# (check, n, expr) -> the payload of verify --format json.
PINS = {
    ("betti", 5, "canonical"): {"avoiding": 101, "failure_count": 0},
    ("characterization", 5, "canonical"): {"failure_count": 0},
    ("chromatic-identity", 5, "canonical"): {"failure_count": 0},
    ("conjectureA", 5, "canonical"): {"equal": 101, "failure_count": 0},
    ("conjectureB", 5, "canonical"): {"avoiding": 101, "failure_count": 0},
    ("going-down", 5, "canonical"): {"failure_count": 0},
    ("hull-vs-standard", 5, "canonical"): {"failure_count": 0},
    ("opy", 5, "canonical"): {"smooth": 88, "failure_count": 0},
    ("phi-injective", 5, "canonical"): {"failure_count": 0},
    ("phi-surjective-iff", 5, "canonical"): {"avoiding": 101, "failure_count": 0},
    ("recurrences", 5, "canonical"): {"heavy": 20, "light": 80, "failure_count": 0},
    ("weak-chain", 5, "canonical"): {"chromobruhatic": 101, "failure_count": 0},
    # The ceilings.
    ("conjectureA", 8, "canonical"): {"equal": 11762, "failure_count": 0},
    ("conjectureB", 8, "canonical"): {"avoiding": 11762, "failure_count": 0},
    ("recurrences", 7, "canonical"): {"heavy": 398, "light": 1944, "failure_count": 0},
    ("phi-injective", 6, "canonical"): {"failure_count": 0},
    ("phi-surjective-iff", 6, "canonical"): {"avoiding": 477, "failure_count": 0},
    ("going-down", 6, "canonical"): {"failure_count": 0},
    ("characterization", 6, "canonical"): {"failure_count": 0},
    ("betti", 6, "canonical"): {"avoiding": 477, "failure_count": 0},
    ("chromatic-identity", 6, "canonical"): {"failure_count": 0},
    ("opy", 8, "canonical"): {"smooth": 6652, "failure_count": 0},
    ("hull-vs-standard", 6, "canonical"): {"failure_count": 0},
    ("weak-chain", 7, "canonical"): {"chromobruhatic": 2343, "failure_count": 0},
    ("phi-injective", 4, "all"): {"failure_count": 0, "expression_mode": "all"},
}

# Each streams a prefix walk, peaking near 16.5-18.5 MB (Python 3.11, Linux),
# under a 25 MB gate; they run first, as RUSAGE_CHILDREN keeps the largest.
GATED = {"conjectureA", "conjectureB", "recurrences"}


def ceiling_rows() -> list[tuple[str, int, str]]:
    """The keys of the rows at the ceilings, the gated checks first."""
    rows = [(check, ceiling, "canonical") for check, (ceiling, _) in CHECKS.items()]
    rows.append(("phi-injective", ALL_EXPR_CEILING, "all"))
    return sorted(rows, key=lambda row: row[0] not in GATED)


def main() -> None:
    for check, n, expr in ceiling_rows():
        report = json.loads(subprocess.run(
            [sys.executable, "-m", "invlat.cli", "verify", "--check", check,
             "--n", str(n), "--expr", expr, "--format", "json"],
            check=True, capture_output=True, text=True,
        ).stdout)
        payload = report["payload"]
        assert report["pass"], report
        assert list(payload.items()) == list(PINS[check, n, expr].items()), report
        line = f"{check} {n} {expr} {payload} {report['elapsed_s']:.1f} s"
        if check in GATED:
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            assert peak_mb < 25, f"{check} peaked at {peak_mb:.1f} MB"
            line += f", peak {peak_mb:.1f} MB"
        print(line)


if __name__ == "__main__":
    main()
