"""Connected-component cleanup: per class, keep only the largest
component, labelled inside the class's bounding box. Component ids follow
first-encounter scan order with x fastest, then y, then z."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import VoxsegError
from .volume import ORGAN_CLASSES, Volume, as_binary, check_labelmap

DEFAULT_CONNECTIVITY = 26
# Tumors are multifocal; they are excluded from largest-component pruning
# unless explicitly listed.
DEFAULT_KEEP_LARGEST_CLASSES = ORGAN_CLASSES


@dataclass(frozen=True)
class ComponentMap:
    """Component id per voxel (0 = background) plus per-id voxel counts;
    ``sizes[k - 1]`` is the size of component k."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def count(self) -> int:
        return len(self.sizes)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        return ndimage.generate_binary_structure(3, 1)
    if connectivity == 26:
        return ndimage.generate_binary_structure(3, 3)
    raise VoxsegError(f"connectivity must be 6 or 26, got {connectivity}")


def connected_components(mask: np.ndarray, connectivity: int = DEFAULT_CONNECTIVITY) -> ComponentMap:
    """Label connected foreground regions of a binary mask."""
    # Labelling the transpose numbers components in x-fastest scan order.
    labels, n = ndimage.label(as_binary(mask).T, structure=_structure(connectivity))
    sizes = np.bincount(labels.ravel(), minlength=n + 1)[1:].astype(np.int64)
    return ComponentMap(labels.T, sizes)


def keep_largest(
    vol: Volume,
    classes=DEFAULT_KEEP_LARGEST_CLASSES,
    connectivity: int = DEFAULT_CONNECTIVITY,
) -> Volume:
    """Zero out, for each listed class, every voxel outside its largest
    connected component (size ties keep the lowest component id).

    Components are labelled inside each class's bounding box, so the cost
    follows the organ, not the scan; scan order inside a box is still
    x-fastest, so ties resolve as on the whole map."""
    check_labelmap(vol)
    out = vol.data.copy(order="K")
    boxes = ndimage.find_objects(vol.data)  # boxes[c - 1]: class c's box, None if absent
    for class_id in classes:
        box = boxes[class_id - 1] if 0 < class_id <= len(boxes) else None
        if box is None:
            continue
        mask = vol.data[box] == class_id
        comp = connected_components(mask, connectivity)
        if comp.count <= 1:
            continue
        keep_id = int(np.argmax(comp.sizes)) + 1  # argmax returns lowest id on ties
        out[box][mask & (comp.labels != keep_id)] = 0
    return vol.with_data(out)
