"""String canonicalization and stable hashing helpers.

Labels and condition values are compared canonically everywhere (pools,
memory keys, gold recovery); originals are preserved on the parsed nodes.
"""

from __future__ import annotations

import hashlib
import re

from .jsonio import dumps_line as canonical_json

_WS = re.compile(r"\s+")


def canon_label(text: str) -> str:
    """Lowercase, trim, collapse internal whitespace. No stemming."""
    return _WS.sub(" ", text.strip()).lower()


def stable_hash(obj) -> str:
    """12-hex digest of the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary string-able parts.

    Used for per-item / per-record RNGs so output is schedule-independent.
    """
    key = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
