"""Run the voxseg CLI in this process and report what the benchmark needs.

    python3 child.py --info-out F [--trace-out T] -- run --manifest M ...

Writes to F, as JSON, this process's own peak RSS (not its children's)
and the ``voxseg.__file__`` it imported.  With ``--trace-out`` it first
wraps the public functions the orchestrator calls, as they are bound in
the calling module, and writes every recorded span to T at exit.  The
program under test is not edited.
"""
from __future__ import annotations

import importlib
import json
import resource
import sys
import time

START = time.time()

# (module, attribute, span name); the functions are wrapped where the
# orchestrator looks them up, so calls inside other modules stay unwrapped
TRACED = (
    ("voxseg.cli", "run_pipeline", "pipeline"),
    ("voxseg.pipeline", "load_nifti", "nifti.load"),
    ("voxseg.pipeline", "save_nifti", "nifti.save"),
    ("voxseg.pipeline", "apply_flip", "tta.flip"),
    ("voxseg.pipeline", "aggregate", "tta.aggregate"),
    ("voxseg.pipeline", "argmax_labels", "tta.argmax"),
    ("voxseg.pipeline", "keep_largest", "postprocess.keep_largest"),
    ("voxseg.pipeline", "merge_partial", "fusion.merge_partial"),
    ("voxseg.pipeline", "merge_organ_tumor", "fusion.merge_organ_tumor"),
    ("voxseg.pipeline", "majority_vote", "fusion.majority_vote"),
    ("voxseg.pipeline", "evaluate_case", "metrics.evaluate_case"),
    ("voxseg.pipeline", "aggregate_cohort", "metrics.aggregate_cohort"),
)
MB = 1 << 20


class Tracer:
    """Spans as [name, start, end, parent index] with wall-clock times.

    Parents come from a stack, which is exact while the orchestrator runs
    one case at a time (``workers`` = 1, its default).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.time() if start is None else start, None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.time()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str, measure=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.count(name + ".mb", measure(args, result) / MB)
                return result
            finally:
                self.close(span)

        return traced


def _install(tracer: Tracer) -> None:
    import voxseg.pipeline as pipeline

    measures = {
        "nifti.load": lambda args, vol: vol.data.nbytes,
        "nifti.save": lambda args, _: args[0].data.nbytes,
    }
    for module, attr, name in TRACED:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, measures.get(name)))

    state = pipeline.PipelineState
    state.persist = tracer.wrap(
        state.persist, "state.write", lambda args, _: args[0].path.stat().st_size
    )


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    trace_out = opts.get("--trace-out")
    tracer = Tracer() if trace_out else None
    root = tracer.open("voxseg", START) if tracer else None
    rc = 1
    try:
        if tracer:
            span = tracer.open("import")
        import voxseg
        import voxseg.cli

        if tracer:
            tracer.close(span)
            _install(tracer)
        rc = voxseg.cli.main(argv[sep + 1:])
    finally:
        if tracer:
            tracer.close(root)
            with open(trace_out, "w") as fh:
                json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
        info = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "voxseg_file": getattr(sys.modules.get("voxseg"), "__file__", None),
        }
        with open(opts["--info-out"], "w") as fh:
            json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
