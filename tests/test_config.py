import json
import re
import typing
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from voxseg.config import (
    PipelineConfig,
    SegmenterContract,
    _read,
    config_from_dict,
    load_config,
    parse_overrides,
)
from voxseg.errors import ConfigError
from voxseg.fusion import FusionPolicy
from voxseg.volume import ORGAN_CLASSES


# Every settable dotted config key; a knob nothing sets is not offered.
CONFIG_SURFACE = {
    "fusion.gt_background_trust", "fusion.tumor_overrides_organ",
    "fusion.min_votes", "fusion.source_priority",
    "nsd_tau", "tta", "connectivity", "keep_largest_classes", "rounds_tumor", "rounds_organ",
    "eval_cases", "external_label_dirs",
    "segmenter.train_cmd", "segmenter.predict_cmd", "segmenter.output_mode",
}


def _dotted_keys(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        # a non-empty dict is a section; external_label_dirs (empty by default) is one value
        if isinstance(value, dict) and value:
            yield from _dotted_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_config_surface():
    cfg = PipelineConfig(segmenter=SegmenterContract("t {model_dir}", "p {output_dir}"))
    assert set(_dotted_keys(cfg.to_dict())) == CONFIG_SURFACE


def _readme_config_keys():
    """The keys named in the first column of README's configuration
    table; ``a.{b,c}`` is ``a.b`` and ``a.c``, and ``x`` / ``y`` names both."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if "{" in name:
                head, leaves = name.rstrip("}").split("{")
                keys.update(head + leaf for leaf in leaves.split(","))
            else:
                keys.add(name)
    return keys


def test_readme_config_table_lists_every_key():
    # a row naming a section (``segmenter``) covers the keys under it
    documented = _readme_config_keys()
    covered = {k if k in documented else k.split(".")[0] for k in CONFIG_SURFACE}
    assert documented == covered


def test_gt_overrides_is_not_a_key():
    # ground-truth foreground always wins at merge; the switch is gone
    with pytest.raises(ConfigError, match="gt_overrides"):
        config_from_dict({"fusion": {"gt_overrides": True}})


def test_phase_order_is_not_a_key():
    # the phases run in PHASE_CLASSES order: they share no class, so order changes no label
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"phase_order": ["organ", "tumor"]})


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.nsd_tau == 1.0
    assert cfg.tta is True
    assert cfg.connectivity == 26
    assert cfg.keep_largest_classes == ORGAN_CLASSES
    assert (cfg.rounds_tumor, cfg.rounds_organ) == (2, 2)
    assert cfg.segmenter is None
    assert cfg.rounds("tumor") == 2 and cfg.rounds("organ") == 2
    assert cfg.nsd_params().tau == 1.0


def test_validation():
    with pytest.raises(ConfigError, match="connectivity"):
        PipelineConfig(connectivity=18)
    with pytest.raises(ConfigError, match="nonnegative"):
        PipelineConfig(rounds_tumor=-1)
    with pytest.raises(ConfigError, match="nsd_tau"):
        PipelineConfig(nsd_tau=0.0)


def test_contract_validation():
    ok = SegmenterContract(
        train_cmd="train {train_dir} {label_dir} {model_dir}",
        predict_cmd="predict {model_dir} {input_dir} {output_dir}",
        output_mode="labels",
    )
    assert ok.output_mode == "labels"
    with pytest.raises(ConfigError, match="output_mode"):
        SegmenterContract("t", "p", output_mode="logits")
    with pytest.raises(ConfigError, match="placeholder"):
        SegmenterContract("train {bogus_dir}", "predict {input_dir}")
    with pytest.raises(ConfigError, match="placeholder"):
        SegmenterContract("train {train_dir}", "predict {train_dir}")
    # unpaired quotes or braces, which shlex.split or str.format cannot parse
    for train, predict in (("python -c 'x", "p"), ("t", 'p "{output_dir}'), ("t {model_dir", "p")):
        with pytest.raises(ConfigError, match="cannot parse command template"):
            SegmenterContract(train, predict)
    # a template must name a command once its placeholders are filled
    for train, predict in (("", "p"), ("t", "   ")):
        with pytest.raises(ConfigError, match="names no command"):
            SegmenterContract(train, predict)
    assert SegmenterContract("{model_dir}", "{output_dir}").train_cmd == "{model_dir}"


@pytest.mark.parametrize("template", ["t {model_dir.x}", "t {0}", "t {}", "t {model_dir[x]}"])
def test_contract_rejects_indexed_and_positional_placeholders(template):
    with pytest.raises(ConfigError, match="bad placeholder"):
        SegmenterContract(template, "p")
    # the same template given as an override fails at load, not mid-run
    segmenter = json.dumps({"train_cmd": template, "predict_cmd": "p"})
    with pytest.raises(ConfigError, match="^bad config: bad placeholder"):
        load_config(overrides=[f"segmenter={segmenter}"])


@pytest.mark.parametrize("template", [
    "t {model_dir[0]}", "t {model_dir!r}", "t {model_dir:>40}", "t {model_dir:{model_dir}}",
])
def test_contract_rejects_indexing_conversions_and_specs(template):
    # str.format would fill these with "/", a quoted repr and padded paths
    with pytest.raises(ConfigError, match="bad placeholder"):
        SegmenterContract(template, "p")
    segmenter = json.dumps({"train_cmd": "t", "predict_cmd": template.replace("model_dir", "output_dir")})
    with pytest.raises(ConfigError, match="^bad config: bad placeholder"):
        load_config(overrides=[f"segmenter={segmenter}"])


def test_duplicate_eval_cases_are_rejected():
    with pytest.raises(ConfigError, match="duplicate case ids in eval_cases"):
        load_config(overrides=['eval_cases=["case_f", "case_f"]'])
    assert load_config(overrides=['eval_cases=["case_e", "case_f"]']).eval_cases == ("case_e", "case_f")


def test_external_source_may_not_be_named_own():
    with pytest.raises(ConfigError, match="'own' is the pipeline's own source"):
        load_config(overrides=['external_label_dirs={"own": "elsewhere"}'])
    assert load_config(overrides=['external_label_dirs={"ext": "elsewhere"}']).external_label_dirs


@pytest.mark.parametrize("override, message", [
    ("fusion=abc", "bad config"),
    ("tta=no", "tta must be true or false, got 'no'"),
    ("tta=1", "tta must be true or false, got 1"),
    ("fusion.gt_background_trust=yes", "fusion.gt_background_trust must be true or false"),
    ("fusion.tumor_overrides_organ=0", "fusion.tumor_overrides_organ must be true or false"),
    ("eval_cases=case_f", "eval_cases must be an array, got 'case_f'"),
    ("keep_largest_classes=1", "keep_largest_classes must be an array, got 1"),
    ("fusion.source_priority=own", "fusion.source_priority must be an array, got 'own'"),
    # a class id is 1-14, or the key names nothing to prune
    ("keep_largest_classes=[300]", "keep_largest_classes: class ids must be 1-14, got [300]"),
    ("keep_largest_classes=[99]", "keep_largest_classes: class ids must be 1-14, got [99]"),
    ("keep_largest_classes=[1,0]", "keep_largest_classes: class ids must be 1-14, got [0]"),
    ("keep_largest_classes=[-1]", "keep_largest_classes: class ids must be 1-14, got [-1]"),
])
def test_wrong_json_type_is_a_config_error(override, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(overrides=[override])


# one value of the wrong JSON kind for every key in CONFIG_SURFACE
WRONG_KINDS = [
    ("fusion.gt_background_trust", "yes"),
    ("fusion.tumor_overrides_organ", "0"),
    ("fusion.min_votes", "true"),
    ("fusion.source_priority", "[1]"),
    ("nsd_tau", "true"),
    ("nsd_tau", "Infinity"),
    ("tta", "null"),
    ("connectivity", "26.0"),
    ("keep_largest_classes", '["a"]'),
    ("rounds_tumor", '"2"'),
    ("rounds_organ", "1.5"),
    ("eval_cases", "[1]"),
    ("external_label_dirs", "abc"),
    ("segmenter.train_cmd", "7"),
    ("segmenter.predict_cmd", "true"),
    ("segmenter.output_mode", '["labels"]'),
]


def test_wrong_kind_table_covers_every_key():
    assert {key for key, _ in WRONG_KINDS} == CONFIG_SURFACE


@pytest.mark.parametrize("key, value", WRONG_KINDS)
def test_every_key_rejects_a_wrong_kind(key, value):
    segmenter = 'segmenter={"train_cmd": "t", "predict_cmd": "p"}'
    with pytest.raises(ConfigError, match=rf"^bad config: {re.escape(key)}\b"):
        load_config(overrides=[segmenter, f"{key}={value}"])


def _annotations(kind):
    """``kind``, the field annotations of a section, and the types inside
    each ``X | None``, ``tuple[X, ...]`` and ``dict[str, X]``."""
    yield kind
    if is_dataclass(kind):
        for field_kind in typing.get_type_hints(kind).values():
            yield from _annotations(field_kind)
    for arg in typing.get_args(kind):
        if arg not in (..., type(None)):
            yield from _annotations(arg)


def test_loader_reads_every_field_annotation():
    # a supported annotation rejects a value of no JSON kind with a ConfigError;
    # one the loader cannot read raises TypeError instead
    kinds = list(_annotations(PipelineConfig))
    assert len(kinds) > len(CONFIG_SURFACE)
    for kind in kinds:
        with pytest.raises(ConfigError, match="bad config"):
            _read(kind, object(), "key")


@pytest.mark.parametrize("kind", [Path, frozenset[int], dict, tuple[int, str], typing.Optional[int]])
def test_loader_refuses_an_unsupported_annotation(kind):
    with pytest.raises(TypeError, match="cannot read"):
        _read(kind, object(), "key")


def test_segmenter_section_needs_its_commands():
    for section in ({}, {"train_cmd": "t"}):
        with pytest.raises(ConfigError, match="bad config: .*predict_cmd"):
            config_from_dict({"segmenter": section})


def test_roundtrip_via_file(tmp_path):
    cfg = PipelineConfig(
        nsd_tau=2.0,
        rounds_tumor=1,
        eval_cases=("case_f",),
        segmenter=SegmenterContract("t {model_dir}", "p {output_dir}"),
        keep_largest_classes=(1, 3),
    )
    raw = json.loads(json.dumps(cfg.to_dict()))
    # plain JSON with lists, not tuples
    assert raw["eval_cases"] == ["case_f"]
    assert raw["keep_largest_classes"] == [1, 3]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert load_config(path) == cfg


def test_parse_overrides():
    tree = parse_overrides(["nsd_tau=2.5", "fusion.min_votes=2", "segmenter.output_mode=labels"])
    assert tree == {"nsd_tau": 2.5, "fusion": {"min_votes": 2}, "segmenter": {"output_mode": "labels"}}
    with pytest.raises(ConfigError, match="key=value"):
        parse_overrides(["nsd_tau"])


def test_override_types():
    tree = parse_overrides(
        ["tta=false", "eval_cases=[\"a\",\"b\"]", "fusion.source_priority=[\"own\",\"ext\"]"]
    )
    cfg = config_from_dict(tree)
    assert cfg.tta is False
    assert cfg.eval_cases == ("a", "b")
    assert cfg.fusion.source_priority == ("own", "ext")


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"nsd_tau": 1.0, "fusion": {"min_votes": 3}}))
    cfg = load_config(path, overrides=["nsd_tau=4.0"])
    assert cfg.nsd_tau == 4.0
    assert cfg.fusion.min_votes == 3  # untouched section keys survive the merge


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"nsd_tua": 1.0})
    with pytest.raises(ConfigError, match=r"unknown config keys: \['fusion\.meen'\]"):
        config_from_dict({"fusion": {"meen": 3}})
    # the segmenter plans its own intensity normalization; preprocess uses frozen constants
    with pytest.raises(ConfigError, match=r"unknown config keys: \['normalization'\]"):
        config_from_dict({"normalization": {"mean": 0.0}})


def test_dotted_override_into_scalar_rejected():
    with pytest.raises(ConfigError, match="not a section"):
        parse_overrides(["nsd_tau=1", "nsd_tau.x=2"])
    with pytest.raises(ConfigError, match="bad config"):
        load_config(None, ["nsd_tau.x=1"])


def test_bad_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


def test_to_dict_is_json_stable():
    cfg = PipelineConfig(fusion=FusionPolicy(source_priority=("own", "ext")))
    d = cfg.to_dict()
    again = json.loads(json.dumps(d, sort_keys=True))
    assert config_from_dict(again) == cfg


def test_segmenter_null_allowed():
    cfg = config_from_dict({"segmenter": None})
    assert cfg.segmenter is None
