#!/usr/bin/env bash
# Run one segmenter command and append "<start> <end> <exit code>" in
# wall-clock seconds to $PERFBENCH_SEGMENTER_LOG, so that the time spent
# in the segmenter is measured outside voxseg.
#
#   bash launch.sh CMD [ARGS...]
start=$EPOCHREALTIME
"$@"
rc=$?
end=$EPOCHREALTIME
if [[ -n "${PERFBENCH_SEGMENTER_LOG:-}" ]]; then
    echo "$start $end $rc" >> "$PERFBENCH_SEGMENTER_LOG"
fi
exit "$rc"
