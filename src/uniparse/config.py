"""Engine configuration: every tunable threshold in one flat table.

Config files are flat JSON objects whose keys are exactly the field names
below. Unknown keys are rejected. The environment variable UNIPARSE_CONFIG
names a fallback config file for the CLI.

A bad value is a ValueError naming the field when the config is built: each
field must have its annotated type (an int is a float, a bool is not an int),
every float must be finite, the counts must be at least 1, max_retries,
the waits and the modelled *_ms_per_* costs must not be negative, and
v_overlap must be positive: units share a band only where they overlap.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

ENV_CONFIG_VAR = "UNIPARSE_CONFIG"

# The types each field annotation admits, keyed by its text (annotations are postponed).
_ADMITS = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,),
           "bool | None": (bool, type(None))}
_COUNTS = ("max_batch", "workers", "queue_capacity", "max_in_flight_docs")
_NOT_NEGATIVE = ("max_retries", "max_wait_ms", "backoff_ms")  # and every *_ms_per_* cost


@dataclass
class EngineConfig:
    # layout: parent containment and geometric group pairing
    ioa_threshold: float = 0.5
    pair_distance: float = 0.08

    # ordering: whitespace cuts and flow heuristics
    min_gap: float = 0.012
    h_overlap: float = 0.3
    v_overlap: float = 0.5
    align_tol: float = 0.02

    # dispatch: greedy batch stacking
    max_batch: int = 16
    max_wait_ms: float = 25.0
    captioning_enabled: bool = True

    # consolidation: lexical continuity rules
    terminal_punctuation: str = ".!?:;"
    # None: join style inferred from the document language tag (zh/ja join
    # without a space); True/False force it.
    cjk_join: bool | None = None

    # runtime: worker pool, queues, retry policy
    workers: int = 4
    queue_capacity: int = 64
    max_retries: int = 3
    backoff_ms: float = 10.0
    max_in_flight_docs: int = 8

    # runtime: modeled CPU stage costs (virtual milliseconds). These are
    # synthetic: they set the simulator's virtual clock and were not
    # calibrated against any machine. Measured real time over modelled time
    # (model.<stage>.measured_over_modelled in BENCH_6.json, reference
    # workload, seed 1): layout 0.077, dispatch 0.030, gather 0.020,
    # consolidate 0.043, format 0.614.
    preprocess_ms_per_page: float = 4.0
    layout_ms_per_page: float = 10.0
    dispatch_ms_per_task: float = 0.2
    gather_ms_per_task: float = 0.05
    gather_ms_per_doc: float = 2.0
    consolidate_ms_per_doc: float = 3.0
    format_ms_per_doc: float = 3.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            admits = _ADMITS[f.type]
            if not isinstance(value, admits) or isinstance(value, bool) and bool not in admits:
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _COUNTS and value < 1:
                raise ValueError(f"{f.name} must be at least 1, got {value!r}")
            not_negative = f.name in _NOT_NEGATIVE or "_ms_per_" in f.name
            if not_negative and value < 0:
                raise ValueError(f"{f.name} must not be negative, got {value!r}")
            if f.name == "v_overlap" and not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")

    def copy(self, **overrides) -> "EngineConfig":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise UnknownConfigKey(sorted(unknown)[0])
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UnknownConfigKey("<root>")
        return cls.from_dict(data)

    @classmethod
    def from_env_or_default(cls, explicit_path: str | None = None) -> "EngineConfig":
        if explicit_path:
            return cls.from_file(explicit_path)
        env_path = os.environ.get(ENV_CONFIG_VAR)
        if env_path:
            return cls.from_file(env_path)
        return cls()

    def joins_without_space(self, language_tag: str) -> bool:
        if self.cjk_join is not None:
            return self.cjk_join
        return language_tag.lower().startswith(("zh", "ja"))


class UnknownConfigKey(ValueError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key: {key!r}")
