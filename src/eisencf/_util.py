"""Shared helpers: deterministic seed derivation, canonical JSON and the
check report shared by the verifier and the ergodic code."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field as dc_field


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit stream seed for (master, label); independent of hashing
    randomization and of how many sibling tasks run."""
    h = hashlib.blake2b(f"{master}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


@dataclass
class CheckReport:
    """Outcome of one check; as a context manager it times its block into
    ``elapsed``."""

    name: str
    samples: int = 0
    failures: list = dc_field(default_factory=list)
    elapsed: float = 0.0
    info: dict = dc_field(default_factory=dict)

    def __enter__(self) -> CheckReport:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        return False

    @property
    def verdict(self) -> str:
        return "PASS" if not self.failures else "FAIL"

    def fail(self, **kw) -> None:
        if len(self.failures) < 64:
            self.failures.append(kw)
        else:
            self.info["failures_truncated"] = True

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "samples": self.samples,
            "failures": self.failures,
            "elapsed_s": round(self.elapsed, 3),
            "info": self.info,
        }
