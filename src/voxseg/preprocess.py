"""CT intensity preprocessing: clip to a fixed HU window, then z-normalize
with frozen dataset statistics. Resampling is left to the segmenter,
which plans its own spacing."""
from __future__ import annotations

import numpy as np

from .volume import Volume

# Dataset-level HU statistics used for clipping and normalization.
DEFAULT_CLIP_LO = -970.0
DEFAULT_CLIP_HI = 279.0
DEFAULT_MEAN = 80.3
DEFAULT_STD = 141.4


def clip_normalize(vol: Volume) -> Volume:
    """Clamp intensities to [DEFAULT_CLIP_LO, DEFAULT_CLIP_HI], then z-normalize."""
    data = vol.data.astype(np.float32, copy=False)
    out = (np.clip(data, DEFAULT_CLIP_LO, DEFAULT_CLIP_HI) - DEFAULT_MEAN) / DEFAULT_STD
    return vol.with_data(out.astype(np.float32))
