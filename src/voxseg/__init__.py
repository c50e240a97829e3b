"""voxseg: non-neural machinery for iterative semi-supervised 3D CT
segmentation — volume I/O, preprocessing, pseudo-label fusion, flip TTA,
post-processing, DSC/NSD metrics, efficiency monitoring, and a resumable
orchestrator driving an external segmenter over a subprocess contract.

The names imported below are the package's public API.
"""

from .errors import (
    ConfigError,
    ManifestError,
    NiftiError,
    PipelineError,
    SegmenterError,
    VoxsegError,
)
from .volume import (
    CLASS_NAMES,
    ORGAN_CLASSES,
    TUMOR_CLASS,
    ProbMap,
    Spacing,
    Volume,
)
from .nifti import load_nifti, peek_nifti, save_nifti
from .preprocess import clip_normalize
from .fusion import FusionPolicy, PartialLabel, majority_vote, merge_organ_tumor, merge_partial
from .tta import FlipSpec, aggregate, apply_flip, argmax_labels, enumerate_flips
from .postprocess import connected_components, keep_largest
from .metrics import (
    MetricReport,
    NsdParams,
    aggregate_cohort,
    dsc,
    edt,
    evaluate_case,
    nsd,
    surface_voxels,
)
from .monitor import EfficiencyReport, ResourceTrace, auc_above_floor, efficiency_report, sample_run
from .manifest import CaseRecord, Manifest, load_manifest
from .config import PipelineConfig, SegmenterContract, load_config
from .state import PipelineState
from .pipeline import run_merge, run_phase, run_pipeline

__version__ = "0.1.0"
