"""Engine configuration: every tunable threshold in one flat table, and the
one field rule and one file reader of every configuration record.

Config files are flat JSON objects whose keys are exactly the field names
below. Unknown keys are rejected. The environment variable UNIPARSE_CONFIG
names a fallback config file for the CLI.

A bad value is a ValueError naming the field when the config is built, by
check_fields: each field must have its annotated type (an int is a float, a
bool is not an int), every float must be finite, the counts must be at least
1, max_retries, the waits and the modelled *_ms_per_* costs must not be
negative, and v_overlap must be positive: units share a band only where they
overlap. The corpus spec, the expert descriptors and their latency models
check their fields by the same rule.
"""

from __future__ import annotations

import dataclasses
import json
import os
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

ENV_CONFIG_VAR = "UNIPARSE_CONFIG"

# The types each field annotation admits, keyed by its text (annotations are
# postponed); any other annotation names a class of the record's own module.
_ADMITS = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,),
           "bool | None": (bool, type(None)), "dict[str, float]": (dict,)}


def check_fields(record, error: type[ValueError] = ValueError, *, counts=(), not_negative=(),
                 positive=(), fractions=()) -> None:
    """Raise error naming the first field of the dataclass record whose value
    its annotation does not admit, a float field that is not finite (an int
    too large for a float is not), or a value outside its range: counts at
    least 1, not_negative at least 0, positive above 0, fractions in [0, 1].
    The value is shown through reprlib.repr, so the line stays short."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        admits = _ADMITS.get(f.type) or (vars(sys.modules[type(record).__module__])[f.type],)
        if not isinstance(value, admits) or isinstance(value, bool) and bool not in admits:
            raise error(f"{f.name} must be {f.type}, got {reprlib.repr(value)}")
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise error(f"{f.name} must be finite, got {reprlib.repr(value)}")
        if f.name in counts and value < 1:
            raise error(f"{f.name} must be at least 1, got {reprlib.repr(value)}")
        if f.name in not_negative and value < 0:
            raise error(f"{f.name} must not be negative, got {reprlib.repr(value)}")
        if f.name in positive and not value > 0:
            raise error(f"{f.name} must be positive, got {reprlib.repr(value)}")
        if f.name in fractions and not 0 <= value <= 1:
            raise error(f"{f.name} must be in [0, 1], got {reprlib.repr(value)}")


def read_fields(cls, path: str | Path, error: type[ValueError] = ValueError) -> dict:
    """The flat JSON object in the file at path, as keyword arguments of the
    dataclass cls. A file that is not JSON or is nested too deeply to decode,
    a root that is not an object, and a key that names no field of cls each
    raise error naming the file; the values are cls's to check."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise error(f"{path}: unknown key: {key!r}")
    return data


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
        check_fields(self, counts=("max_batch", "workers", "queue_capacity", "max_in_flight_docs"),
                     not_negative=("max_retries", "max_wait_ms", "backoff_ms", *_COSTS),
                     positive=("v_overlap",))

    def copy(self, **overrides) -> "EngineConfig":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        """The config in the file at path; a field error ends naming the file."""
        fields = read_fields(cls, path)
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{exc} (in {path})") from None

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


# The modelled CPU stage costs: not negative, like the waits.
_COSTS = tuple(f.name for f in dataclasses.fields(EngineConfig) if "_ms_per_" in f.name)
