"""Iterative teacher→pseudo-label→student orchestration.

Each phase (tumor, organ) repeats: train the segmenter on every case that
annotates the phase's classes plus previously fused students, predict all
remaining cases (8-flip TTA when the segmenter emits probabilities, whose
maps are checked against the wire contract and reduced one class at a
time), keep the largest component per configured class, and persist the
fused pseudo labels.  A final merge stage combines the per-phase labels
(plus any external pseudo-label sources) into complete 14-class maps and
overlays each case's ground truth.  Every case image is read before it is
handed to the segmenter (``_stage_image``): a teacher's is then copied and
its label put on its header, and an image that cannot be read stops the
round before ``train_cmd`` starts; a student's, with or without TTA, is
staged as its 8 flips or as a copy, and one that cannot be read fails
that student alone.  A case's grid is its image's header: every map read
is checked against it and every map written is built on it.

One thread rule: a worker thread (``_Segmenter``) only waits on a
segmenter command, and every file voxseg reads or writes is handled on
the calling thread, so that one traced call never overlaps another.
While a round trains, the calling thread stages its predict inputs, which
depend on no model; a round resumed after its train stages them before
``predict_cmd``.  The phases share no class, so the organ phase's first
round needs nothing the tumor phase writes: in ``run_pipeline``, while
the tumor phase's last ``predict_cmd`` runs, the calling thread stages
that organ round's teachers and predict inputs; as soon as the predict
exits it starts the organ train, then fuses the tumor round while the
organ model trains.  Rounds of one phase never overlap.  Any exception on
the calling thread kills a running command and waits for it before it
goes on, and a command never outlives the process
(``monitor.sample_run``).  Cases fuse one at a time, in manifest order.

A round runs as the steps ``voxseg.state.ROUND_STEPS`` names, and the
run's snapshot (``voxseg.state.PipelineState``) records the next one, so a
killed run resumes at the step it stopped in.  Fused files carry content
digests, so a resumed step does not recompute its finished cases.  A work
directory holds one run: ``open_state`` resumes it from ``state.json``, or
starts it in a directory that holds none of the other entries below
(``RUN_ENTRIES``), so that no round trains on an earlier run's pseudo
labels.  Work directory layout:

    state.json                      snapshot at the last step boundary
    state.json.journal              per-case outcomes since that snapshot
    rounds/<phase>_r<k>/
      train_images/ train_labels/   teacher set handed to train_cmd
      model/                        segmenter model_dir
      predict_images/               student inputs (flipped copies under TTA)
      predict_raw/                  raw segmenter outputs
      logs/                         train.log, predict.log
      eval.json                     held-out metrics for the round
    pseudo_tumor/ pseudo_organ/     latest fused pseudo label per student case
    final/                          merged labels, one per manifest case
    report.json
"""
from __future__ import annotations

import hashlib
import logging
import re
import shlex
import shutil
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import NiftiError, PipelineError, SegmenterError, VoxsegError
from .fusion import PartialLabel, majority_vote, merge_organ_tumor, merge_partial
from .manifest import CaseRecord, Manifest
from .metrics import aggregate_cohort, evaluate_case
from .monitor import sample_run, split_command
from .nifti import find_nifti, load_nifti, nifti_files, peek_nifti, save_nifti
from .postprocess import keep_largest
from .state import DONE, MERGE, PHASE_CLASSES, PipelineState, next_step, write_json
from . import tta
from .tta import PROB_INFIX, TTA_INFIX, FlipSpec, apply_flip, enumerate_flips, flip_mean, label_argmax
from .volume import PROB_TOL, TUMOR_CLASS, Volume, check_labelmap, check_same_grid, labelmap_like

# uncalled here: perfbench's tracer wraps these two by name on this module
aggregate, argmax_labels = tta.aggregate, tta.argmax_labels

log = logging.getLogger(__name__)

# what a run writes into its work directory besides state.json
RUN_ENTRIES = ("state.json.journal", "rounds", "pseudo_tumor", "pseudo_organ", "final", "report.json")

FUSED = "fused"
FAILED = "failed"

_PROB_TAIL = re.compile(rf"{PROB_INFIX}(\d+)$")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _restrict(vol: Volume, classes) -> Volume:
    """Zero every voxel whose class is not in ``classes``."""
    keep = sorted(classes)
    table = np.zeros(256, dtype=np.uint8)  # indexed by uint8 label value
    table[keep] = keep
    return labelmap_like(table[vol.data], vol)


def _ext(path) -> str:
    return ".nii.gz" if str(path).endswith(".nii.gz") else ".nii"


def _round_dir(work: Path, phase: str, rnd: int) -> Path:
    return work / "rounds" / f"{phase}_r{rnd}"


def _store_dir(work: Path, phase: str) -> Path:
    return work / f"pseudo_{phase}"


def _teacher_records(manifest: Manifest, config: PipelineConfig, phase: str) -> list[CaseRecord]:
    held_out = set(config.eval_cases)
    classes = PHASE_CLASSES[phase]
    return [r for r in manifest.cases if r.annotates(classes) and r.case_id not in held_out]


def _student_records(manifest: Manifest, config: PipelineConfig, phase: str) -> list[CaseRecord]:
    teacher_ids = {r.case_id for r in _teacher_records(manifest, config, phase)}
    return [r for r in manifest.cases if r.case_id not in teacher_ids]


def _run_command(
    template: str, paths: dict, log_path: Path, what: str, stop: threading.Event | None = None
) -> None:
    argv = split_command(template, {k: str(v) for k, v in paths.items()})  # str, as checked at load
    cmd = shlex.join(argv)
    log.info("running %s: %s", what, cmd)
    try:
        with open(log_path, "ab") as fh:
            fh.write(f"$ {cmd}\n".encode())
            fh.flush()
            code, trace = sample_run(argv, output=fh, stop=stop)
            fh.write(f"# voxseg: exit {code} after {trace.samples[-1][0]:.2f} s, peak RSS "
                     f"{trace.peak_bytes / 2**20:.1f} MB (launched process only)\n".encode())
    except OSError as exc:
        raise SegmenterError(f"cannot launch {what} command {argv[0]!r}: {exc}") from exc
    if code != 0:
        raise SegmenterError(f"{what} command exited with {code}; see {log_path}")


class _Segmenter:
    """Runs segmenter commands on one worker thread, which only waits on
    them, so the calling thread handles every file meanwhile.  Leaving the
    ``with`` block by any exception kills a running command and waits for
    it before the exception goes on."""

    def __enter__(self) -> "_Segmenter":
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._stop = threading.Event()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self._stop.set()
        self._pool.shutdown()

    def start(self, template: str, paths: dict, log_path: Path, what: str) -> Future:
        """Start a command; the future ends with it."""
        return self._pool.submit(_run_command, template, paths, log_path, what, self._stop)

    def train(self, config: PipelineConfig, rd: Path) -> Future:
        """Start the train of the round in ``rd``, whose teachers are staged."""
        paths = {"train_dir": rd / "train_images", "label_dir": rd / "train_labels", "model_dir": rd / "model"}
        return self.start(config.segmenter.train_cmd, paths, rd / "logs" / "train.log", "train")


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _build_train_dirs(
    rd: Path, manifest: Manifest, config: PipelineConfig, phase: str,
    teachers: list[CaseRecord], students: list[CaseRecord],
) -> int:
    """Stage teacher images/labels for train_cmd and make its model
    directory; returns the case count.  An image that cannot be read
    raises before anything is trained."""
    img_dir = _fresh_dir(rd / "train_images")
    lab_dir = _fresh_dir(rd / "train_labels")
    (rd / "model").mkdir(exist_ok=True)
    classes = PHASE_CLASSES[phase]
    count = 0
    for rec in teachers:
        image = _stage_image(manifest, rec, img_dir, use_tta=False)
        gt = check_labelmap(image.with_data(load_nifti(manifest.label_file(rec)).data))
        save_nifti(_restrict(gt, rec.annotated_classes & classes), lab_dir / f"{rec.case_id}.nii.gz")
        count += 1
    held_out = set(config.eval_cases)
    store = _store_dir(rd.parent.parent, phase)
    for rec in students:
        fused = store / f"{rec.case_id}.nii.gz"
        if rec.case_id in held_out or not fused.exists():
            continue
        _stage_image(manifest, rec, img_dir, use_tta=False)
        shutil.copyfile(fused, lab_dir / f"{rec.case_id}.nii.gz")
        count += 1
    return count


def _tta_bases(case_id: str, use_tta: bool) -> list[tuple[FlipSpec, str]]:
    """``(flip, base)`` for each prediction of a case: ``<case>__tta<k>``
    for the 8 flips under TTA, else the case id with the identity flip."""
    if not use_tta:
        return [(FlipSpec(), case_id)]
    return [(spec, f"{case_id}{TTA_INFIX}{spec.tag}") for spec in enumerate_flips()]


def _stage_image(manifest: Manifest, rec: CaseRecord, img_dir: Path, use_tta: bool) -> Volume:
    """Read a case's image, then hand it to the segmenter in ``img_dir``:
    its 8 flips under TTA, else a byte copy of its file.  Returns the
    image.  A read error is a PipelineError naming the case; a write error
    is raised as it is."""
    src = manifest.image_file(rec)
    try:
        image = load_nifti(src)
    except (NiftiError, OSError) as exc:
        raise PipelineError(f"case {rec.case_id!r}: cannot read its image: {exc}") from exc
    if use_tta:
        # stored gzip: the segmenter reads each flip once, so compressing
        # it would cost more time than it saves
        for spec, base in _tta_bases(rec.case_id, True):
            save_nifti(apply_flip(image, spec), img_dir / f"{base}.nii.gz", level=0)
    else:
        shutil.copyfile(src, img_dir / f"{rec.case_id}{_ext(src)}")
    return image


def _write_predict_inputs(
    rd: Path, manifest: Manifest, students: list[CaseRecord], use_tta: bool, running: Future | None = None
) -> dict[str, str]:
    """Stage each student's predict inputs in turn, until the segmenter
    command ``running`` has failed; returns ``{case_id: error}`` for the
    students whose image cannot be read, for which nothing is staged.  A
    write error is raised."""
    img_dir = _fresh_dir(rd / "predict_images")
    unreadable = {}
    for rec in students:
        if running is not None and running.done() and running.exception() is not None:
            break
        try:
            _stage_image(manifest, rec, img_dir, use_tta)
        except PipelineError as exc:  # only a read error is one
            log.warning("%s", exc)
            unreadable[rec.case_id] = str(exc)
    return unreadable


def index_prob_maps(raw_dir: Path) -> dict[str, dict[int, Path]]:
    """``{base: {class_id: path}}`` for every ``<base>_prob_<c>.nii[.gz]`` in
    ``raw_dir``, from one listing; ``.nii.gz`` wins over ``.nii`` for a
    channel.  A missing directory indexes as empty, so each case then
    fails on its own."""
    index: dict[str, dict[int, Path]] = {}
    try:
        files = nifti_files(raw_dir)
    except OSError:
        return index
    for stem, path in files.items():
        m = _PROB_TAIL.search(stem)
        if m:
            index.setdefault(stem[: m.start()], {})[int(m.group(1))] = path
    return index


def _case_prob_paths(
    index: dict, raw_dir: Path, case_id: str, use_tta: bool
) -> tuple[list[tuple[FlipSpec, dict[int, Path]]], tuple[int, ...]]:
    """Each flip's ``{class_id: path}`` for one case, and the class ids,
    which every flip must share and which must be label classes (0..14)
    including background 0."""
    flips, classes = [], None
    for spec, base in _tta_bases(case_id, use_tta):
        paths = index.get(base)
        if not paths:
            raise VoxsegError(f"segmenter wrote no probability maps for {base!r} in {raw_dir}")
        if classes is None:
            classes, first = tuple(sorted(paths)), base
        elif tuple(sorted(paths)) != classes:
            raise VoxsegError(
                f"probability maps of {base!r} have classes {sorted(paths)}, "
                f"but those of {first!r} have {list(classes)}"
            )
        flips.append((spec, paths))
    if classes[0] != 0 or classes[-1] > TUMOR_CLASS:
        raise VoxsegError(
            f"probability maps for {case_id!r} have classes {list(classes)}, "
            f"not background 0 and classes up to {TUMOR_CLASS}"
        )
    return flips, classes


def _load_on_grid(path: Path, ref: Volume, ref_name: str) -> Volume:
    """A segmenter's or an external source's map, checked against the grid
    of ``ref`` (its case image, or the map named ``ref_name``)."""
    vol = load_nifti(path)
    check_same_grid([(ref_name, ref), (path.name, vol)])
    return vol


def reduce_prob_maps(
    index: dict, raw_dir: Path, case_id: str, use_tta: bool, grid: Volume | None = None
) -> Volume:
    """Labels of one case from its (flipped) probability maps, one class
    at a time, checking them against the wire contract.

    Each class's maps are loaded in flip order into one float64 mean
    (``tta.flip_mean``), added to a per-voxel sum and folded into the labels
    (``tta.label_argmax``), so the case holds a few volumes, not (C, nx, ny,
    nz) arrays.  ``grid`` is the header every map must match and the labels
    get: the student image's, or by default the first flip's background
    map's.  Every flip must carry the same classes, including background 0;
    each class mean must lie in [0, 1] and the per-voxel sum must be 1, both
    within ``PROB_TOL``.
    """
    flips, classes = _case_prob_paths(index, raw_dir, case_id, use_tta)
    grid_name = "image"
    if grid is None:
        grid_name = flips[0][1][0].name
        grid = peek_nifti(flips[0][1][0])
    total = np.zeros(grid.dims, order="F")

    def class_means():
        for c in classes:
            mean = flip_mean((s, _load_on_grid(paths[c], grid, grid_name).data) for s, paths in flips)
            lo, hi = mean.min(), mean.max()
            if lo < -PROB_TOL or hi > 1 + PROB_TOL:
                raise VoxsegError(
                    f"probability maps for {case_id!r}: class {c} averages {lo:.6g}..{hi:.6g}, "
                    "outside [0, 1]"
                )
            np.add(total, mean, out=total)
            yield c, mean
            del mean  # freed before the next class is read

    labels = label_argmax(class_means())
    lo, hi = total.min(), total.max()
    if lo < 1 - PROB_TOL or hi > 1 + PROB_TOL:
        raise VoxsegError(
            f"probability maps for {case_id!r} sum to {lo:.6g}..{hi:.6g} per voxel, not 1"
        )
    return check_labelmap(grid.with_data(labels))


def _predicted_labels(
    rec: CaseRecord, manifest: Manifest, raw_dir: Path, prob_maps: dict, config: PipelineConfig
) -> Volume:
    """Read the segmenter's output for one case, checked against the case
    image's grid, and reduce it to labels on the image's header."""
    head = peek_nifti(manifest.image_file(rec))
    if config.segmenter.output_mode == "labels":
        path = find_nifti(raw_dir, rec.case_id)
        if path is None:
            raise VoxsegError(f"segmenter wrote no label map for {rec.case_id!r} in {raw_dir}")
        return check_labelmap(head.with_data(_load_on_grid(path, head, "image").data))
    return reduce_prob_maps(prob_maps, raw_dir, rec.case_id, config.tta, head)


def _process_case(
    rec: CaseRecord, manifest: Manifest, config: PipelineConfig, phase: str, rd: Path,
    prob_maps: dict,
) -> Volume:
    """One student's fused pseudo label for ``phase``."""
    # no ground truth to overlay: a case annotated for these classes is a teacher unless held out
    classes = PHASE_CLASSES[phase]
    labels = _predicted_labels(rec, manifest, rd / "predict_raw", prob_maps, config)
    keep_classes = [c for c in config.keep_largest_classes if c in classes]
    if keep_classes:
        labels = keep_largest(labels, keep_classes, config.connectivity)
    return _restrict(labels, classes)


def _run_cases(state: PipelineState, records, build, out_dir: Path) -> dict:
    """Build, save and record each case in turn, skipping those whose
    recorded digest still matches their file; returns the stage's case
    summary.

    ``build(rec)`` returns the case's label map, saved as
    ``out_dir/<case>.nii.gz``.  A case that raises is recorded as failed
    and the others go on; the summary keeps each failed case's error text,
    since ``end_round`` empties ``cases``.
    """
    for rec in records:
        path = out_dir / f"{rec.case_id}.nii.gz"
        entry = state.cases.get(rec.case_id, {})
        if entry.get("status") == FUSED and path.exists() and _sha256(path) == entry["digest"]:
            continue
        try:
            labels = build(rec)
            save_nifti(labels, path)
            entry = {
                "status": FUSED,
                "digest": _sha256(path),
                "foreground": int((labels.data > 0).sum()),
            }
        except (VoxsegError, OSError) as exc:
            log.warning("case %s failed: %s", rec.case_id, exc)
            entry = {"status": FAILED, "error": str(exc)}
        state.set_case(rec.case_id, entry)

    entries = state.cases
    fused = sorted(c for c, e in entries.items() if e.get("status") == FUSED)
    failed = sorted(c for c, e in entries.items() if e.get("status") == FAILED)
    return {
        "fused": len(fused),
        "failed": failed,
        "errors": {c: entries[c]["error"] for c in failed},
        "foreground_voxels": {c: entries[c].get("foreground", 0) for c in fused},
    }


def _evaluate_held_out(work: Path, manifest: Manifest, config: PipelineConfig) -> dict:
    reports = []
    for cid in config.eval_cases:
        rec = manifest.case(cid)
        gt = check_labelmap(load_nifti(manifest.label_file(rec)))
        pred = _own_labels(work, manifest, config, rec)
        reports.append(evaluate_case(pred, gt, config.nsd_params(), case_id=cid))
    return aggregate_cohort(reports)


def run_phase(state: PipelineState, manifest: Manifest, config: PipelineConfig) -> PipelineState:
    """Run the round ``state`` names, from its next step, with
    ``config.segmenter``."""
    with _Segmenter() as segmenter:
        _run_round(state, manifest, config, segmenter)
    return state


def _stage_ahead(
    manifest: Manifest, config: PipelineConfig, work: Path, phase: str, running: Future | None
) -> dict | None:
    """Stage the teachers and the predict inputs of round 0 of ``phase``
    while ``running`` runs; returns the students' read failures, or None
    when the round cannot be staged now, so that it stages again, and
    fails, at its own train step."""
    rd = _round_dir(work, phase, 0)
    (rd / "logs").mkdir(parents=True, exist_ok=True)
    teachers, students = _teacher_records(manifest, config, phase), _student_records(manifest, config, phase)
    use_tta = config.tta and config.segmenter.output_mode == "probabilities"
    try:
        _build_train_dirs(rd, manifest, config, phase, teachers, students)
        return _write_predict_inputs(rd, manifest, students, use_tta, running)
    except (VoxsegError, OSError) as exc:
        log.warning("%s round 0 cannot be staged yet: %s", phase, exc)
        return None


def _run_round(
    state: PipelineState, manifest: Manifest, config: PipelineConfig, segmenter: _Segmenter,
    ahead: tuple[Future, dict] | None = None, start_next: bool = False,
) -> tuple[Future, dict] | None:
    """Run the round ``state`` names, from its next step.

    ``ahead`` is ``(train, read failures)`` when the round before staged
    this round's teachers and predict inputs and started its train.  With
    ``start_next``, when the next round belongs to the other phase, this
    round does that for it, and returns the pair: it stages while its
    ``predict_cmd`` runs, and starts the train before it fuses.
    """
    phase = state.phase
    if phase not in PHASE_CLASSES:
        raise PipelineError(f"no round is left: the run's next step is {phase!r}; `voxseg run` merges")
    contract = config.segmenter
    if contract is None:
        raise PipelineError("no segmenter contract configured")
    teachers = _teacher_records(manifest, config, phase)
    if not teachers:
        raise PipelineError(f"{phase} phase has no teacher cases annotating its classes")
    students = _student_records(manifest, config, phase)
    work = state.path.parent
    rnd = state.round
    rd = _round_dir(work, phase, rnd)
    (rd / "logs").mkdir(parents=True, exist_ok=True)
    store = _store_dir(work, phase)
    store.mkdir(parents=True, exist_ok=True)
    use_tta = config.tta and contract.output_mode == "probabilities"
    log.info(
        "phase %s round %d: %d teacher(s), %d student(s)", phase, rnd, len(teachers), len(students)
    )

    unreadable = None
    if state.step == "train":
        staging_error = None
        if ahead:
            train, unreadable = ahead
        else:
            n = _build_train_dirs(rd, manifest, config, phase, teachers, students)
            log.info("training on %d case(s)", n)
            train = segmenter.train(config, rd)
            # the predict inputs do not depend on the model: staged while it trains
            try:
                unreadable = _write_predict_inputs(rd, manifest, students, use_tta, train)
            except OSError as exc:  # raised once the train is saved; the resumed round stages again
                staging_error = exc
        train.result()
        state.advance("predict")
        if staging_error is not None:
            raise staging_error

    following = None
    if state.step == "predict":
        if unreadable is None:  # a round resumed after its train
            unreadable = _write_predict_inputs(rd, manifest, students, use_tta)
        for case_id, error in unreadable.items():
            state.cases[case_id] = {"status": FAILED, "error": error, "unread": True}
        predict = None
        if len(unreadable) < len(students):  # a segmenter may refuse an empty input directory
            (rd / "predict_raw").mkdir(exist_ok=True)
            predict = segmenter.start(
                contract.predict_cmd,
                {"model_dir": rd / "model", "input_dir": rd / "predict_images",
                 "output_dir": rd / "predict_raw"},
                rd / "logs" / "predict.log",
                "predict",
            )
        next_phase, _ = next_step(config, phase, rnd + 1)
        # the phases share no class: the other phase's first round needs
        # nothing this phase writes
        staged = None
        if start_next and next_phase in PHASE_CLASSES and next_phase != phase:
            staged = _stage_ahead(manifest, config, work, next_phase, predict)
        if predict is not None:
            predict.result()
        state.advance("fuse")  # with the read failures
        if staged is not None:
            following = (segmenter.train(config, _round_dir(work, next_phase, 0)), staged)
    # a student whose image cannot be read is neither predicted nor fused, also on resume
    readable = [rec for rec in students if "unread" not in state.cases.get(rec.case_id, {})]

    prob_maps = index_prob_maps(rd / "predict_raw")
    summary = _run_cases(
        state, readable,
        lambda rec: _process_case(rec, manifest, config, phase, rd, prob_maps),
        store,
    )
    record = {
        "phase": phase,
        "round": rnd,
        "teachers": len(teachers),
        "students": len(students),
        **summary,
    }
    if config.eval_cases:
        evaluation = _evaluate_held_out(work, manifest, config)
        write_json(evaluation, rd / "eval.json")
        record["eval"] = evaluation
        log.info(
            "phase %s round %d held-out mean DSC: %.4f", phase, rnd, evaluation["mean_dsc"]
        )
    state.end_round(record, config)
    return following


def _phase_component(work: Path, head: Volume, rec: CaseRecord, phase: str) -> Volume:
    """A case's fused pseudo label for one phase from ``pseudo_<phase>/``,
    or zeros where there is none, as for a teacher; on the image's ``head``."""
    path = _store_dir(work, phase) / f"{rec.case_id}.nii.gz"
    if path.exists():
        return check_labelmap(head.with_data(load_nifti(path).data))
    return head.with_data(np.zeros(head.dims, dtype=np.uint8, order="F"))  # x-fastest, like loaded maps


def _own_labels(work: Path, manifest: Manifest, config: PipelineConfig, rec: CaseRecord) -> Volume:
    """A case's organ and tumor pseudo labels merged into one map; its
    ground truth is overlaid later, by ``_merge_case`` alone."""
    head = peek_nifti(manifest.image_file(rec))
    organ = _phase_component(work, head, rec, "organ")
    tumor = _phase_component(work, head, rec, "tumor")
    return merge_organ_tumor(organ, tumor, config.fusion.tumor_overrides_organ)


def _merge_case(work: Path, manifest: Manifest, config: PipelineConfig, rec: CaseRecord) -> Volume:
    merged = _own_labels(work, manifest, config, rec)
    if config.external_label_dirs:
        sources = [("own", merged)]  # on the case image's header
        for name, directory in config.external_label_dirs.items():
            path = find_nifti(directory, rec.case_id)
            if path is None:
                log.warning("external source %s has no label for %s", name, rec.case_id)
            else:
                sources.append((name, check_labelmap(_load_on_grid(path, merged, "image"))))
        if len(sources) > 1:
            merged = majority_vote(sources, config.fusion)
    if rec.label_path and rec.case_id not in set(config.eval_cases):
        gt = check_labelmap(load_nifti(manifest.label_file(rec)))
        merged = merge_partial(PartialLabel(gt, rec.annotated_classes), merged, config.fusion)
    return merged


def run_merge(state: PipelineState, manifest: Manifest, config: PipelineConfig) -> PipelineState:
    """Combine per-phase labels (and external sources) into final maps."""
    if state.phase != MERGE:
        raise PipelineError(f"state is in phase {state.phase!r}, not {MERGE!r}")
    work = state.path.parent
    final_dir = work / "final"
    final_dir.mkdir(parents=True, exist_ok=True)
    summary = _run_cases(
        state, manifest.cases, lambda rec: _merge_case(work, manifest, config, rec), final_dir
    )
    state.finish({"phase": MERGE, "cases": len(manifest.cases), **summary})
    return state


def validate_run(manifest: Manifest, config: PipelineConfig) -> None:
    """Reject a config that cannot run on ``manifest``, or a label file off
    its image's grid, before any work starts."""
    ids = {r.case_id for r in manifest.cases}
    for cid in config.eval_cases:
        if cid not in ids:
            raise PipelineError(f"eval case {cid!r} is not in the manifest")
        if manifest.case(cid).label_path is None:
            raise PipelineError(f"eval case {cid!r} has no ground-truth label to score against")
    if config.external_label_dirs:
        missing = [n for n in ("own", *config.external_label_dirs) if n not in config.fusion.source_priority]
        if missing:
            raise PipelineError(
                f"fusion.source_priority must rank every vote source; missing {missing}"
            )
        for name, directory in config.external_label_dirs.items():
            if not Path(directory).is_dir():
                raise PipelineError(f"external source {name!r}: {directory} is not a directory")
    total_rounds = sum(config.rounds(p) for p in PHASE_CLASSES)
    if total_rounds > 0 and config.segmenter is None:
        raise PipelineError("config.segmenter is required when any phase has rounds > 0")
    for phase in PHASE_CLASSES:
        if config.rounds(phase) > 0 and not _teacher_records(manifest, config, phase):
            raise PipelineError(f"{phase} phase has no teacher cases annotating its classes")
    for rec in manifest.cases:
        if rec.label_path:
            try:
                check_same_grid([("image", peek_nifti(manifest.image_file(rec))),
                                 ("label", peek_nifti(manifest.label_file(rec)))])
            except VoxsegError as exc:
                raise PipelineError(f"case {rec.case_id!r}: {exc}") from exc


def check_failed(records: list[dict], where: Path) -> None:
    """Raise PipelineError naming the failed cases of each round or merge
    record in ``records``; ``where`` is the file that records them."""
    failures = []
    for h in records:
        if h.get("failed"):
            stage = h["phase"] if h.get("round") is None else f"{h['phase']} round {h['round']}"
            failures.append(f"{stage}: {', '.join(h['failed'])}")
    if failures:
        raise PipelineError(f"failed case(s), see {where}: " + "; ".join(failures))


def _build_report(state: PipelineState) -> dict:
    finals = {
        cid: e["digest"]
        for cid, e in state.cases.items()
        if e.get("status") == FUSED and "digest" in e
    }
    return {
        "history": state.history,
        "final_labels": finals,
        "config": state.config,
    }


def open_state(manifest: Manifest, config: PipelineConfig, work) -> PipelineState:
    """Start or resume the one run ``work`` holds, once ``validate_run``
    passes: resume ``work/state.json`` under the config it was created
    with, or start fresh where ``work`` holds none of ``RUN_ENTRIES``, an
    earlier run's outputs that a round would train on."""
    validate_run(manifest, config)
    work = Path(work)
    state_path = work / "state.json"
    if not state_path.exists():
        left = [name for name in RUN_ENTRIES if (work / name).exists()]
        if left:
            raise PipelineError(
                f"{work} holds {left[0]} but no state.json; pass an empty or new work directory"
            )
        work.mkdir(parents=True, exist_ok=True)
        return PipelineState.fresh(state_path, config)
    state = PipelineState.load(state_path)
    if state.config != config.to_dict():
        raise PipelineError(
            f"{state_path} was created with a different config; "
            "pass a fresh work directory or the original config"
        )
    log.info("resuming from %s (phase %s, round %d)", state_path, state.phase, state.round)
    return state


def run_pipeline(manifest: Manifest, config: PipelineConfig, work) -> dict:
    """Drive all configured phases to completion and write report.json.

    Raises PipelineError, after writing the report, when any round or the
    merge recorded a failed case.
    """
    work = Path(work)
    state = open_state(manifest, config, work)

    with _Segmenter() as segmenter:
        ahead = None
        while state.phase != DONE:
            if state.phase == MERGE:
                run_merge(state, manifest, config)
            else:
                ahead = _run_round(state, manifest, config, segmenter, ahead, start_next=True)

    report = _build_report(state)
    write_json(report, work / "report.json")
    log.info("pipeline done: %d final label(s) in %s", len(report["final_labels"]), work / "final")
    check_failed(report["history"], work / "report.json")
    return report
