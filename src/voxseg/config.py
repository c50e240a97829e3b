"""Pipeline configuration: a JSON file plus dotted-key flag overrides.

Flags always win over file values; the effective config is snapshotted
into the pipeline state for reproducibility.
"""
from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .errors import ConfigError, VoxsegError
from .fusion import FusionPolicy
from .metrics import NsdParams
from .monitor import split_command
from .postprocess import DEFAULT_CONNECTIVITY, DEFAULT_KEEP_LARGEST_CLASSES
from .volume import FOREGROUND_CLASSES


@dataclass(frozen=True)
class SegmenterContract:
    """Command templates driving the external segmenter.

    ``train_cmd`` may use {train_dir}, {label_dir}, {model_dir};
    ``predict_cmd`` may use {model_dir}, {input_dir}, {output_dir}.
    A template is split into words by shell quoting rules, then each
    ``{name}`` becomes its path verbatim inside its word (``{{``/``}}`` are
    literal braces). It must name a command, and is run without a shell. Commands
    must exit 0; predict writes one output per input case (``<case>.nii.gz``
    or ``<case>_prob_<class>.nii.gz``).
    """

    train_cmd: str
    predict_cmd: str
    output_mode: str = "probabilities"

    def __post_init__(self):
        if self.output_mode not in ("labels", "probabilities"):
            raise ConfigError(f"output_mode must be labels|probabilities, got {self.output_mode!r}")
        for tmpl, allowed in (
            (self.train_cmd, {"train_dir", "label_dir", "model_dir"}),
            (self.predict_cmd, {"model_dir", "input_dir", "output_dir"}),
        ):
            try:
                split_command(tmpl, {k: k for k in allowed})
            except VoxsegError as exc:
                raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class PipelineConfig:
    fusion: FusionPolicy = field(default_factory=FusionPolicy)
    nsd_tau: float = 1.0
    tta: bool = True
    connectivity: int = DEFAULT_CONNECTIVITY
    keep_largest_classes: tuple[int, ...] = DEFAULT_KEEP_LARGEST_CLASSES
    rounds_tumor: int = 2
    rounds_organ: int = 2
    eval_cases: tuple[str, ...] = ()
    external_label_dirs: dict[str, str] = field(default_factory=dict)
    segmenter: SegmenterContract | None = None

    def __post_init__(self):
        if self.connectivity not in (6, 26):
            raise ConfigError(f"connectivity must be 6 or 26, got {self.connectivity}")
        stray = [c for c in self.keep_largest_classes if c not in FOREGROUND_CLASSES]
        if stray:
            raise ConfigError(f"keep_largest_classes: class ids must be 1-14, got {stray}")
        if self.rounds_tumor < 0 or self.rounds_organ < 0:
            raise ConfigError("round counts must be nonnegative")
        if not self.nsd_tau > 0:
            raise ConfigError(f"nsd_tau must be positive, got {self.nsd_tau}")
        if len(set(self.eval_cases)) != len(self.eval_cases):
            raise ConfigError(f"duplicate case ids in eval_cases: {list(self.eval_cases)}")
        if "own" in self.external_label_dirs:
            raise ConfigError("external_label_dirs: 'own' is the pipeline's own source; rename it")

    def rounds(self, phase: str) -> int:
        return self.rounds_tumor if phase == "tumor" else self.rounds_organ

    def nsd_params(self) -> NsdParams:
        return NsdParams(tau=self.nsd_tau)

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))


def _set_dotted(tree: dict, key: str, value) -> None:
    parts = key.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {key!r}: {part!r} is not a section")
    node[parts[-1]] = value


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings are allowed without quotes


def parse_overrides(pairs: list[str]) -> dict:
    """Turn ``section.key=value`` strings into a nested dict."""
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} must look like key=value")
        key, _, raw = pair.partition("=")
        _set_dotted(tree, key.strip(), _coerce(raw.strip()))
    return tree


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# the JSON value types each scalar field accepts; a bool is not a number
_SCALARS = {bool: ("true or false", (bool,)), int: ("an integer", (int,)),
            float: ("a finite number", (int, float)), str: ("a string", (str,))}


def _read(kind, value, key: str):
    """Build a value of the annotated type ``kind`` from the JSON ``value``;
    ``key`` is its dotted name in errors. A dataclass is a section: a JSON
    object whose keys are its fields."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType and args[1:] == (type(None),):  # X | None
        return None if value is None else _read(args[0], value, key)
    if kind in _SCALARS:
        what, json_types = _SCALARS[kind]
    elif origin is tuple and args[1:] == (...,):
        what, json_types = "an array", (list,)
    elif is_dataclass(kind) or origin is dict and args[0] is str:
        what, json_types = "an object", (dict,)
    else:
        raise TypeError(f"the config loader cannot read a {kind!r} field ({key})")
    if type(value) not in json_types or type(value) is float and not math.isfinite(value):
        raise ConfigError(f"bad config: {key} must be {what}, got {value!r}")
    if origin is tuple:
        return tuple(_read(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        return {k: _read(args[1], v, f"{key}.{k}") for k, v in value.items()}
    if not is_dataclass(kind):
        return value
    hints = typing.get_type_hints(kind)
    prefix = f"{key}." if key else ""
    unknown = [prefix + k for k in value if k not in hints]
    if unknown:
        raise ConfigError(f"bad config: unknown config keys: {unknown}")
    kwargs = {k: _read(hints[k], v, prefix + k) for k, v in value.items()}
    try:
        return kind(**kwargs)
    except (TypeError, VoxsegError) as exc:  # a required key is missing, or a range check failed
        raise ConfigError(f"bad config: {exc}") from exc


def config_from_dict(raw: dict) -> PipelineConfig:
    return _read(PipelineConfig, raw, "")


def load_config(path=None, overrides: list[str] | None = None) -> PipelineConfig:
    """Read a JSON config file and apply dotted-key overrides on top."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    if overrides:
        data = _merge(data, parse_overrides(overrides))
    return config_from_dict(data)
