"""One serializable configuration object for every pipeline stage.

A RunConfig collects the knobs of all stages so a whole pipeline run is
reproducible from a single JSON file. Its hash is embedded in every
artifact a stage writes; two artifacts with the same hash were produced
by byte-identical configuration. Worker count and endpoint credentials
are deliberately excluded from the hash — neither changes output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .canon import stable_hash
from .errors import ConfigConflict, DataError, MalformedDocument
from .jsonio import Record, check_ranges, knob, loads
from .memory import DEFAULT_MAX_PREFIX_LEN
from .provgraph import FieldMap, SynthParams
from .retrieval import STRUCT_SEED, RetrievalWeights
from .runner import PolicyConfig
from .scoring import ScoringConfig
from .splits import DEFAULT_DEV_RATIO, DEFAULT_HELD_OUT_CLASS, DEFAULT_RATIOS, PARTITIONS, PROTOCOLS
from .taskgen import DEFAULT_K, GenCaps
from .taskgen.model import OPTION_COUNTS

PATH_KEYS = (
    "raw",
    "graphs",
    "warnings",
    "bench",
    "skips",
    "split",
    "memory",
    "log",
    "report",
    "predictions",
)
# retired fields, each hashed at the one value it could take, so that every
# config_hash stays as it was
RETIRED_HASH_KEYS = {"struct_seed": STRUCT_SEED, "embeddings": True, "endpoints": {"embed_url": ""}}


@dataclass
class Endpoints:
    chat_url: str = ""
    chat_token: str = ""


@dataclass
class RunConfig(Record):
    load_error = ConfigConflict

    paths: dict[str, str] = field(default_factory=dict)
    seed: int = knob(0)
    k_options: int = knob(DEFAULT_K, f"[{OPTION_COUNTS[0]}, {OPTION_COUNTS[-1]}]")
    n_records: int = SynthParams.n_records  # its range is SynthParams'
    protocol: str = "random"
    ratios: tuple[float, float, float] = knob(DEFAULT_RATIOS, "[0, 1]")
    held_out_class: str = DEFAULT_HELD_OUT_CLASS
    dev_ratio: float = knob(DEFAULT_DEV_RATIO, "[0, 1)")
    partition: str = "test"
    max_prefix_len: int = knob(DEFAULT_MAX_PREFIX_LEN, "[1, inf)")
    field_map: dict | None = None
    caps: dict | None = None
    weights: RetrievalWeights = field(default_factory=RetrievalWeights)
    top_k: int = PolicyConfig.top_k  # ranged by PolicyConfig, like lam and the runner knobs
    lam: float = PolicyConfig.lam
    policy: str = PolicyConfig.policy
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    # PolicyConfig's knobs that have no field here; missing ones take its defaults
    runner: dict = field(default_factory=dict)
    endpoints: Endpoints = field(default_factory=Endpoints)
    pairs: str = ""
    axes: list[str] | None = None
    jobs: int = knob(1, "[1, inf)")

    def __post_init__(self):
        self.ratios = tuple(float(r) for r in self.ratios)
        for name, allowed in (("protocol", PROTOCOLS), ("partition", PARTITIONS)):
            if getattr(self, name) not in allowed:
                raise ConfigConflict(
                    f"{name} {getattr(self, name)!r} is not one of {', '.join(allowed)}")
        check_ranges(self)
        check_ranges(SynthParams, n_records=self.n_records)
        # here, before policy_config's round trip reads an integer too wide as a float
        check_ranges(PolicyConfig, top_k=self.top_k, lam=self.lam)
        # caps and field_map stay plain dicts, so that a partial one keeps its hash
        if self.caps:
            GenCaps.from_dict(self.caps)  # a usage error, like every other knob
        if self.field_map:
            try:
                FieldMap.from_dict(self.field_map)
            except MalformedDocument as exc:  # a data error, as compile reports it
                raise DataError(f"field_map: {exc}") from None
        strangers = set(self.paths) - set(PATH_KEYS)
        if strangers:
            raise ConfigConflict(f"unknown path keys: {sorted(strangers)}")
        own = {f.name for f in fields(self)}
        defaults = {k: v for k, v in PolicyConfig().to_dict().items() if k not in own}
        strangers = set(self.runner) - set(defaults)
        if strangers:
            raise ConfigConflict(f"unknown runner keys: {sorted(strangers)}")
        self.runner = {**defaults, **self.runner}
        self.policy_config()

    def merged(self, overrides: dict) -> "RunConfig":
        """A copy with ``overrides`` applied; nested dicts merge per key."""
        base = self.to_dict()
        for key, value in overrides.items():
            if key not in base:
                raise ConfigConflict(f"unknown configuration key {key!r}")
            if isinstance(base[key], dict) and isinstance(value, dict):
                base[key] = {**base[key], **value}
            else:
                base[key] = value
        return RunConfig.from_dict(base)

    def config_hash(self) -> str:
        """Stable digest of everything that can change artifact content.

        File locations, worker count, and credentials are excluded: none
        of them alters the rows a stage computes, so renaming an output
        or changing parallelism does not masquerade as a different run.
        """
        d = self.to_dict()
        del d["paths"]
        del d["jobs"]
        endpoints = {k: v for k, v in d["endpoints"].items() if not k.endswith("_token")}
        return stable_hash({**d, **RETIRED_HASH_KEYS,
                            "endpoints": {**endpoints, **RETIRED_HASH_KEYS["endpoints"]}})

    def policy_config(self) -> PolicyConfig:
        """The runner knobs, with the policy fields this config holds itself."""
        d = self.to_dict()
        shared = {f.name: d[f.name] for f in fields(PolicyConfig) if f.name in d}
        return PolicyConfig.from_dict({**d["runner"], **shared})

    def path(self, key: str) -> str:
        if key not in PATH_KEYS:
            raise ConfigConflict(f"unknown path key {key!r}")
        value = self.paths.get(key, "")
        if not value:
            raise ConfigConflict(f"no {key!r} path configured")
        return value


def load_config_file(path: str | Path) -> dict:
    """Raw dict from a JSON config file (validated on merge)."""
    try:
        content = loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigConflict(f"config file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigConflict(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(content, dict):
        raise ConfigConflict(f"config file {path} must hold a JSON object")
    return content
