"""Shared helpers: deterministic seed derivation, canonical JSON and the
verifier's check report."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit stream seed for (master, label); independent of hashing
    randomization and of how many sibling tasks run."""
    import hashlib  # only here: it costs `expand` a few ms of start-up

    h = hashlib.blake2b(f"{master}:{label}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def canonical_json(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"``, the one serializer of every artifact.

    It does not call ``json.dumps``: with ``indent`` set, CPython 3.11 has no
    C encoder and runs its generator-based pure-Python one, which costs an
    ``expand`` request more than its arithmetic.  Types are handled as json
    handles them: subclasses of str, int and float (``np.float64``) print
    as their base type, and anything else (a set, bytes, ``np.int64``)
    raises ``TypeError``."""
    return _json_text(obj, "\n") + "\n"


_INF = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_JSON_ATOMS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_key(k) -> str:
    if isinstance(k, str):
        return _json_str(k)
    if isinstance(k, (int, float)) or k is None:  # as json: 1 -> "1", None -> "null"
        return _json_str(_json_text(k, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json_text(o, nl: str) -> str:
    """``o`` as json writes it; ``nl`` is a newline and the indent of the
    line that ``o`` starts on."""
    atom = _JSON_ATOMS.get(type(o))
    if atom is not None:
        return atom(o)
    if isinstance(o, str):  # subclasses, in json's order of tests
        return _json_str(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json_text(v, inner) for v in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


class CheckReport:
    """Outcome of one check."""

    def __init__(self, name: str):
        self.name, self.samples, self.failures, self.info = name, 0, [], {}

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
            "info": self.info,
        }
