"""Command-line interface.

One binary, subcommand per workflow.  Exit codes: 0 success, 1 domain
error (bad data, failed subprocess), 2 usage error.  Each subcommand
declares only the flags it reads, and ``fuse`` rejects the flags of the
modes it is not running.  The commands that read the pipeline config
(``run``, ``phase``, ``fuse``, ``evaluate``, ``postprocess``) accept
``--config`` (JSON file) and repeatable ``--set key=value`` overrides;
dotted keys reach nested sections, e.g. ``--set fusion.min_votes=2``.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import mock_segmenter
from .config import PipelineConfig, load_config
from .errors import VoxsegError
from .fusion import FusionPolicy, PartialLabel, majority_vote, merge_organ_tumor, merge_partial
from .manifest import load_manifest
from .metrics import aggregate_cohort, evaluate_case, write_cohort_csv, write_cohort_json
from .monitor import (
    DEFAULT_PERIOD_S,
    MEM_FLOOR_GB,
    SELF_RSS_PROBE,
    efficiency_report,
    sample_run,
    split_command,
    write_report,
)
from .nifti import load_nifti, nifti_files, nifti_stem, save_nifti
from .pipeline import (
    check_failed,
    index_prob_maps,
    open_state,
    reduce_prob_maps,
    run_phase,
    run_pipeline,
)
from .postprocess import keep_largest
from .preprocess import clip_normalize
from .volume import FOREGROUND_CLASSES, check_labelmap

log = logging.getLogger(__name__)


def _parse_classes(text: str) -> tuple[int, ...]:
    try:
        classes = tuple(int(t) for t in text.split(",") if t.strip())
        stray = [c for c in classes if c not in FOREGROUND_CLASSES]
        if stray:
            raise ValueError(f"class ids must be 1-14, got {stray}")
    except ValueError as exc:
        raise VoxsegError(f"bad class list {text!r}: {exc}") from exc
    return classes


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- run / phase


def cmd_run(args) -> int:
    config = load_config(args.config, args.overrides)
    manifest = load_manifest(args.manifest)
    work = Path(args.work)
    report = run_pipeline(manifest, config, work)
    print(f"final labels: {len(report['final_labels'])} case(s) in {work / 'final'}")
    evals = [h["eval"]["mean_dsc"] for h in report["history"] if h.get("eval")]
    if evals:
        print("held-out mean DSC per round: " + ", ".join(f"{v:.4f}" for v in evals))
    print(f"report: {work / 'report.json'}")
    return 0


def cmd_phase(args) -> int:
    config = load_config(args.config, args.overrides)
    manifest = load_manifest(args.manifest)
    state = open_state(manifest, config, args.work)
    run_phase(state, manifest, config, args.phase)
    last = state.history[-1]
    print(
        f"phase {last['phase']} round {last['round']}: fused {last['fused']}/{last['students']} case(s)"
        + (f", held-out mean DSC {last['eval']['mean_dsc']:.4f}" if last.get("eval") else "")
    )
    check_failed([last], state.path)
    return 0


# ------------------------------------------------------------------- fuse


def _fuse_policy(config: PipelineConfig, names: list[str]) -> FusionPolicy:
    policy = config.fusion
    if all(n in policy.source_priority for n in names):
        return policy
    # config priority does not cover these sources; fall back to CLI order
    log.info("using source order %s for tie-breaking", names)
    return replace(policy, source_priority=tuple(names))


def _io_pairs(inputs: list[Path], out: Path):
    """Yield (per-source input paths, output path) for files, or for each
    case stem that every input directory holds."""
    if all(p.is_dir() for p in inputs):
        listings = [nifti_files(p) for p in inputs]
        for p, m in zip(inputs, listings):
            if not m:
                raise VoxsegError(f"no NIfTI files in {p}")
        stems = sorted(set.intersection(*(set(m) for m in listings)))
        if not stems:
            raise VoxsegError("input directories share no case files")
        skipped = sorted(set.union(*(set(m) for m in listings)) - set(stems))
        if skipped:
            log.warning("skipping cases missing from some inputs: %s", ", ".join(skipped))
        out.mkdir(parents=True, exist_ok=True)
        for stem in stems:
            yield [m[stem] for m in listings], out / f"{stem}.nii.gz"
    elif any(p.is_dir() for p in inputs):
        raise VoxsegError("mix of files and directories; pass all files or all directories")
    else:
        yield list(inputs), out


# the flags each ``fuse --mode`` reads: it needs all of them and rejects
# the other modes' flags
FUSE_FLAGS = {
    "vote": ("source",),
    "organ-tumor": ("organ", "tumor"),
    "merge-partial": ("gt", "pseudo", "classes"),
}


def _check_fuse_flags(args) -> None:
    given = {f for flags in FUSE_FLAGS.values() for f in flags if getattr(args, f) is not None}
    own = FUSE_FLAGS[args.mode]
    missing = [f for f in own if f not in given]
    if missing:
        raise _UsageError(f"missing required flag(s): {', '.join('--' + f for f in missing)}")
    unread = sorted(given - set(own))
    if unread:
        raise _UsageError(f"--mode {args.mode} does not read {', '.join('--' + f for f in unread)}")


def cmd_fuse(args) -> int:
    _check_fuse_flags(args)
    config = load_config(args.config, args.overrides)
    out = Path(args.out)
    if args.mode == "vote":
        if len(args.source) < 2:
            raise _UsageError("vote mode needs at least two --source name=path entries")
        names, paths = [], []
        for item in args.source:
            name, _, path = item.partition("=")
            if not path:
                raise _UsageError(f"--source must look like name=path, got {item!r}")
            names.append(name)
            paths.append(Path(path))
        policy = _fuse_policy(config, names)
        for srcs, dst in _io_pairs(paths, out):
            vols = [check_labelmap(load_nifti(p)) for p in srcs]
            save_nifti(majority_vote(list(zip(names, vols)), policy), dst)
    elif args.mode == "organ-tumor":
        for (organ_p, tumor_p), dst in _io_pairs([Path(args.organ), Path(args.tumor)], out):
            merged = merge_organ_tumor(
                check_labelmap(load_nifti(organ_p)),
                check_labelmap(load_nifti(tumor_p)),
                config.fusion.tumor_overrides_organ,
            )
            save_nifti(merged, dst)
    else:  # merge-partial
        annotated = frozenset(_parse_classes(args.classes))
        for (gt_p, pseudo_p), dst in _io_pairs([Path(args.gt), Path(args.pseudo)], out):
            partial = PartialLabel(check_labelmap(load_nifti(gt_p)), annotated)
            merged = merge_partial(partial, check_labelmap(load_nifti(pseudo_p)), config.fusion)
            save_nifti(merged, dst)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    config = load_config(args.config, args.overrides)
    pred, gt = Path(args.pred), Path(args.gt)
    pairs = []
    if pred.is_dir() != gt.is_dir():
        raise VoxsegError("--pred and --gt must both be files or both be directories")
    if pred.is_dir():
        preds, gts = nifti_files(pred), nifti_files(gt)
        missing = sorted(set(gts) - set(preds))
        if missing:
            raise VoxsegError(f"no prediction for case(s): {', '.join(missing)}")
        pairs = [(stem, preds[stem], gts[stem]) for stem in sorted(gts)]
        if not pairs:
            raise VoxsegError(f"no NIfTI files in {gt}")
    else:
        pairs = [(nifti_stem(pred.name) or pred.name, pred, gt)]
    reports = []
    for case_id, ppath, gpath in pairs:
        reports.append(
            evaluate_case(
                check_labelmap(load_nifti(ppath)),
                check_labelmap(load_nifti(gpath)),
                config.nsd_params(),
                case_id=case_id,
            )
        )
    summary = aggregate_cohort(reports)
    print(f"{'class':<22}{'DSC':>16}{'NSD':>16}")
    for name, row in summary["per_class"].items():
        print(
            f"{name:<22}{row['dsc_mean']:>9.4f}±{row['dsc_std']:.4f}"
            f"{row['nsd_mean']:>9.4f}±{row['nsd_std']:.4f}"
        )
    print(f"mean DSC over {summary['n_cases']} case(s): {summary['mean_dsc']:.4f}")
    if args.out:
        write_cohort_csv(summary, args.out)
        print(f"wrote {args.out}")
    if args.json:
        write_cohort_json(summary, args.json)
        print(f"wrote {args.json}")
    return 0


# -------------------------------------------------------------- preprocess


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    for (in_path,), out_path in _io_pairs([Path(args.image)], out):
        save_nifti(clip_normalize(load_nifti(in_path)), out_path)
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------- monitor


def cmd_monitor(args) -> int:
    if not math.isfinite(args.floor):
        raise _UsageError(f"--floor must be finite, got {args.floor}")
    try:
        returncode, trace = sample_run(split_command(args.cmd), args.probe, args.period)
    except VoxsegError as exc:  # a bad --cmd, --probe or --period
        raise _UsageError(str(exc)) from exc
    runtime = trace.samples[-1][0]
    report = efficiency_report(trace, runtime, args.floor)
    print(
        f"runtime {report.runtime_s:.2f}s (over tolerance: {report.runtime_over_tolerance_s:.2f}s), "
        f"peak {report.peak_mem_gb:.3f} GB, AUC above {args.floor:g} GB: "
        f"{report.mem_auc_gb_s:.3f} GB*s"
    )
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if returncode != 0:
        print(f"monitored command exited with {returncode}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------- tta / postprocess


def cmd_tta_aggregate(args) -> int:
    raw = Path(args.input_dir)
    labels = reduce_prob_maps(index_prob_maps(raw), raw, args.case, use_tta=not args.no_flips)
    save_nifti(labels, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_postprocess(args) -> int:
    config = load_config(args.config, args.overrides)
    # only an absent flag falls back to the config; "" is the empty list
    classes = config.keep_largest_classes if args.classes is None else _parse_classes(args.classes)
    out = Path(args.out)
    for (in_path,), out_path in _io_pairs([Path(args.input)], out):
        vol = check_labelmap(load_nifti(in_path))
        save_nifti(keep_largest(vol, classes, config.connectivity), out_path)
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------ mock segmenter


def cmd_mock_train(args) -> int:
    mock_segmenter.train(args.train_dir, args.label_dir, args.model_dir)
    return 0


def cmd_mock_predict(args) -> int:
    mock_segmenter.predict(args.model_dir, args.input_dir, args.output_dir, args.mode)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    configured = argparse.ArgumentParser(add_help=False, parents=[verbose])
    configured.add_argument("--config", help="JSON config file")
    configured.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=VALUE",
        help="override a config value by dotted key (repeatable)",
    )
    pipelined = argparse.ArgumentParser(add_help=False, parents=[configured])
    pipelined.add_argument(
        "--manifest", required=True, help="dataset manifest (JSON array of case records)"
    )
    pipelined.add_argument("--work", required=True, help="run directory holding state and outputs")

    parser = argparse.ArgumentParser(
        prog="voxseg",
        description="Iterative semi-supervised segmentation pipeline tools",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("run", parents=[pipelined], help="run all phases + merge to completion")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("phase", parents=[pipelined], help="run a single round of one phase")
    p.add_argument("--phase", required=True, choices=["tumor", "organ"])
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("fuse", parents=[configured], help="fuse label maps")
    p.add_argument("--mode", required=True, choices=["vote", "organ-tumor", "merge-partial"])
    p.add_argument("--source", action="append", metavar="NAME=PATH", help="vote source (repeat)")
    p.add_argument("--organ", help="organ label map or directory")
    p.add_argument("--tumor", help="tumor label map or directory")
    p.add_argument("--gt", help="partial ground-truth map or directory")
    p.add_argument("--pseudo", help="pseudo-label map or directory")
    p.add_argument("--classes", help="comma-separated annotated classes of --gt")
    p.add_argument("--out", required=True, help="output file or directory")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", parents=[configured], help="DSC/NSD of predictions vs ground truth")
    p.add_argument("--pred", required=True, help="prediction file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--out", help="write per-class CSV here")
    p.add_argument("--json", help="write full JSON summary here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("preprocess", parents=[verbose],
                       help="clip and z-normalize CT volumes with the frozen constants")
    p.add_argument("--image", required=True, help="input volume or directory")
    p.add_argument("--out", required=True, help="output volume or directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("monitor", parents=[verbose], help="run a command under a resource monitor")
    p.add_argument("--cmd", required=True, help="command line to run")
    p.add_argument("--probe", default=SELF_RSS_PROBE,
                   help="memory probe command printing bytes; {pid} is substituted")
    p.add_argument("--period", type=float, default=DEFAULT_PERIOD_S, help="sample period seconds")
    p.add_argument("--floor", type=float, default=MEM_FLOOR_GB, help="memory floor in GB")
    p.add_argument("--out", help="write the efficiency report JSON here")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("tta-aggregate", parents=[verbose],
                       help="average flipped probability maps back into one label map")
    p.add_argument("--input-dir", required=True,
                   help="directory of <case>__tta<k>_prob_<c>.nii.gz maps")
    p.add_argument("--case", required=True, help="case id")
    p.add_argument("--no-flips", action="store_true", help="inputs are unflipped <case>_prob_<c>")
    p.add_argument("--out", required=True, help="output label map")
    p.set_defaults(func=cmd_tta_aggregate)

    p = sub.add_parser("postprocess", parents=[configured], help="keep the largest component per class")
    p.add_argument("--input", required=True, help="label map or directory")
    p.add_argument("--classes", help="comma-separated classes (default: configured organ list)")
    p.add_argument("--out", required=True, help="output file or directory")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("mock-segmenter", help="deterministic intensity-band segmenter for tests")
    mock = p.add_subparsers(dest="action", metavar="ACTION", required=True)
    p = mock.add_parser("train", parents=[verbose], help="fit the intensity bands")
    p.add_argument("--train-dir", required=True)
    p.add_argument("--label-dir", required=True)
    p.add_argument("--model-dir", required=True)
    p.set_defaults(func=cmd_mock_train)
    p = mock.add_parser("predict", parents=[verbose], help="segment every image in a directory")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--input-dir", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--mode", default="probabilities", choices=["labels", "probabilities"])
    p.set_defaults(func=cmd_mock_predict)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args) or 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VoxsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
