"""Correctness checks of a benchmark run, counted for ``fail_ratio``.

Every check counts once in ``attempted``; a check that does not hold, or
an operation that raises, counts once in ``failed``. Nothing here raises
on a failed check, so a wrong output shows up as a failed operation in the
result, never as a crash or a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def guard(self, name: str, fn, *args, **kwargs):
        """Run one operation of the workload. Returns its value, or None
        when it raised; the exception counts as a failed check."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a failed operation
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(name, True)
        return value

    def equal(self, name: str, observed, expected) -> bool:
        return self.check(name, observed == expected,
                          f"got {observed!r}, expected {expected!r}")

    def close(self, name: str, value: float, reference: float, rtol: float) -> bool:
        ok = math.isfinite(value) and abs(value - reference) <= rtol * abs(reference)
        return self.check(name, ok, f"got {value!r}, reference {reference!r}, rtol {rtol}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20]}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_checksums(path: str) -> dict[str, str]:
    """``<sha256>  <name>`` lines, as in tests/golden_checksums.txt."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                out[name] = digest
    return out


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)
