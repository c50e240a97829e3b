"""Pipeline configuration: a JSON file plus dotted-key flag overrides.

Flags always win over file values; the effective config is snapshotted
into the pipeline state for reproducibility.
"""
from __future__ import annotations

import json
import shlex
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .fusion import FusionPolicy
from .metrics import NsdParams
from .preprocess import NormalizationParams
from .postprocess import DEFAULT_CONNECTIVITY, DEFAULT_KEEP_LARGEST_CLASSES


@dataclass(frozen=True)
class SegmenterContract:
    """Subprocess command templates driving the external segmenter.

    ``train_cmd`` may use {train_dir}, {label_dir}, {model_dir};
    ``predict_cmd`` may use {model_dir}, {input_dir}, {output_dir}.
    A template is split into arguments by shell quoting rules and run
    without a shell. Commands must exit 0 on success; predict writes one
    output per input case (``<case>.nii.gz`` or ``<case>_prob_<class>.nii.gz``).
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
            if not isinstance(tmpl, str):
                raise ConfigError(f"segmenter command template must be a string, got {tmpl!r}")
            try:
                shlex.split(tmpl.format(**{k: "" for k in allowed}))
            except (KeyError, IndexError) as exc:
                raise ConfigError(f"bad placeholder in command template {tmpl!r}: {exc}") from exc
            except ValueError as exc:  # an unpaired brace or quote
                raise ConfigError(f"cannot parse command template {tmpl!r}: {exc}") from exc


@dataclass(frozen=True)
class PipelineConfig:
    normalization: NormalizationParams = field(default_factory=NormalizationParams)
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
        if self.rounds_tumor < 0 or self.rounds_organ < 0:
            raise ConfigError("round counts must be nonnegative")
        if not self.nsd_tau > 0:
            raise ConfigError(f"nsd_tau must be positive, got {self.nsd_tau}")

    def rounds(self, phase: str) -> int:
        return self.rounds_tumor if phase == "tumor" else self.rounds_organ

    def nsd_params(self) -> NsdParams:
        return NsdParams(tau=self.nsd_tau)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fusion"]["source_priority"] = list(self.fusion.source_priority)
        d["keep_largest_classes"] = list(self.keep_largest_classes)
        d["eval_cases"] = list(self.eval_cases)
        return d


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


# dotted keys whose JSON value must be a boolean, and those that must be an array
_BOOL_KEYS = ("tta", "fusion.tumor_overrides_organ", "fusion.gt_background_trust")
_LIST_KEYS = ("keep_largest_classes", "eval_cases", "fusion.source_priority")


def _check_json_types(raw: dict) -> None:
    for keys, kind, what in ((_BOOL_KEYS, bool, "true or false"), (_LIST_KEYS, list, "an array")):
        for key in keys:
            section, _, leaf = key.rpartition(".")
            node = raw.get(section) if section else raw
            if isinstance(node, dict) and leaf in node and not isinstance(node[leaf], kind):
                raise ConfigError(f"{key} must be {what}, got {node[leaf]!r}")


def config_from_dict(raw: dict) -> PipelineConfig:
    _check_json_types(raw)
    raw = dict(raw)
    kwargs = {}
    try:
        if "normalization" in raw:
            kwargs["normalization"] = NormalizationParams(**raw.pop("normalization"))
        if "fusion" in raw:
            f = dict(raw.pop("fusion"))
            if "source_priority" in f:
                f["source_priority"] = tuple(f["source_priority"])
            kwargs["fusion"] = FusionPolicy(**f)
        if "segmenter" in raw:
            seg = raw.pop("segmenter")
            kwargs["segmenter"] = SegmenterContract(**seg) if seg else None
        for key in ("keep_largest_classes", "eval_cases"):
            if key in raw:
                kwargs[key] = tuple(raw.pop(key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    known = PipelineConfig.__dataclass_fields__
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        return PipelineConfig(**kwargs, **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


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
