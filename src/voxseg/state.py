"""A run's progress: ``PipelineState``, a JSON snapshot that names the step
to run next (a round's ``phase``, ``round`` and ``step``, the merge, or
done), plus a journal of the cases finished since.  The snapshot,
``<work>/state.json``, is rewritten atomically at every step boundary; the
journal, ``state.json.journal``, gets one line per finished case and is
emptied by the next snapshot."""
from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .config import PipelineConfig
from .errors import PipelineError
from .volume import ORGAN_CLASSES, TUMOR_CLASS

log = logging.getLogger(__name__)

# in run order; the phases share no class, so their order changes no label
PHASE_CLASSES = {
    "tumor": frozenset({TUMOR_CLASS}),
    "organ": frozenset(ORGAN_CLASSES),
}
MERGE, DONE = "merge", "done"
# a round's steps in run order; the snapshot names the next one
ROUND_STEPS = ("train", "predict", "fuse")

STATE_VERSION = 1
# test hook: kill the process (os._exit) right after the Nth state write
# (snapshot or journal append)
CRASH_ENV = "VOXSEG_CRASH_AFTER"


def write_json(data: dict, path) -> None:
    """Write ``data`` to ``path`` atomically: to a temporary file, then renamed."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def next_step(config: PipelineConfig, phase: str, rnd: int) -> tuple[str, int]:
    """The step that runs once ``rnd`` rounds of ``phase`` are done: round
    ``rnd`` of ``phase`` if configured, else round 0 of the next phase in
    ``PHASE_CLASSES`` order that has rounds, else the merge."""
    phases = list(PHASE_CLASSES)
    for p in phases[phases.index(phase):]:
        if rnd < config.rounds(p):
            return p, rnd
        rnd = 0
    return MERGE, 0


@dataclass
class PipelineState:
    """Mutable run state: a JSON snapshot plus an append-only case journal.

    The fields after ``path`` are the snapshot's keys.  Step-boundary
    mutators (and ``persist``) rewrite the snapshot atomically and empty
    the journal; ``set_case`` appends one line to the journal instead, so
    recording a case costs the same at any cohort size.  Every write bumps
    ``persist_count``; ``load`` replays the journal lines numbered past the
    snapshot's count.  Every mutator writes before returning, so the files
    on disk never lag behind completed work by more than the step in flight.
    """

    path: Path
    version: int
    phase: str
    round: int
    step: str  # the current round's next step, from ROUND_STEPS
    cases: dict
    history: list
    persist_count: int
    config: dict

    @classmethod
    def fresh(cls, path, config: PipelineConfig) -> "PipelineState":
        phase, rnd = next_step(config, next(iter(PHASE_CLASSES)), 0)
        state = cls(
            path=Path(path), version=STATE_VERSION, phase=phase, round=rnd, step=ROUND_STEPS[0],
            cases={}, history=[], persist_count=0, config=config.to_dict(),
        )
        # an earlier run's journal numbers its lines past this state's count
        state.journal.unlink(missing_ok=True)
        state.persist()
        return state

    @classmethod
    def load(cls, path) -> "PipelineState":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PipelineError(f"cannot read state {path}: {exc}") from exc
        version = data.get("version") if isinstance(data, dict) else None
        if version != STATE_VERSION:
            raise PipelineError(f"{path}: unsupported state version {version!r}")
        keys = set(_SNAPSHOT_KEYS)
        missing, extra = sorted(keys - set(data)), sorted(set(data) - keys)
        if missing or extra:
            raise PipelineError(f"{path}: state snapshot lacks keys {missing}, has unknown keys {extra}")
        state = cls(path=Path(path), **data)
        state._replay_journal()
        return state

    def _replay_journal(self) -> None:
        """Apply journal lines written after the snapshot, in order.

        Lines numbered at or below the snapshot's count predate it (a kill
        between snapshot and truncation).  A torn last line (undecodable or
        unterminated) ends the replay and is cut off, so the next append
        starts on a line of its own.
        """
        try:
            raw = self.journal.read_bytes()
        except FileNotFoundError:
            return
        good = 0
        for line in raw.splitlines(keepends=True):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("unterminated line")
                rec = json.loads(line)
            except ValueError:
                os.truncate(self.journal, good)
                return
            good += len(line)
            if rec["n"] > self.persist_count:
                self.cases[rec["case"]] = rec["entry"]
                self.persist_count = rec["n"]

    @property
    def journal(self) -> Path:
        return self.path.with_name(self.path.name + ".journal")

    def persist(self) -> None:
        """Write the snapshot and empty the journal it now covers."""
        self.persist_count += 1
        write_json({k: getattr(self, k) for k in _SNAPSHOT_KEYS}, self.path)
        self.journal.write_bytes(b"")
        self._crash_hook()

    def _crash_hook(self) -> None:
        crash_after = os.environ.get(CRASH_ENV)
        if crash_after and self.persist_count == int(crash_after):
            log.warning("crash hook: exiting after persist #%s", crash_after)
            os._exit(137)

    def advance(self, step: str) -> None:
        """End the round's current step: ``step`` runs next."""
        self.step = step
        self.persist()

    def set_case(self, case_id: str, entry: dict) -> None:
        self.cases[case_id] = entry
        self.persist_count += 1
        line = json.dumps({"n": self.persist_count, "case": case_id, "entry": entry})
        with open(self.journal, "a") as fh:
            fh.write(line + "\n")
        self._crash_hook()

    def end_round(self, record: dict, config: PipelineConfig) -> None:
        self.history.append(record)
        self.phase, self.round = next_step(config, self.phase, self.round + 1)
        self.step = ROUND_STEPS[0]
        self.cases = {}
        self.persist()

    def finish(self, record: dict) -> None:
        self.history.append(record)
        self.phase = DONE
        self.persist()


_SNAPSHOT_KEYS = tuple(f.name for f in fields(PipelineState) if f.name != "path")
