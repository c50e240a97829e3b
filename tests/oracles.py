"""Brute-force reference implementations used to check the fast code.

Everything here favors obviousness over speed: all-pairs distances,
per-voxel Python loops, BFS flood fill.  Sizes stay small (≤ 8³) so the
whole oracle suite runs in seconds.
"""
from __future__ import annotations

from collections import Counter, deque

import numpy as np

FACE_OFFSETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
ALL_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def dsc_ref(pred, gt) -> float:
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    total = int(pred.sum()) + int(gt.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(pred, gt).sum()) / total


def edt_ref(mask, spacing) -> np.ndarray:
    """Distance to the nearest foreground voxel center, by trying them all."""
    mask = np.asarray(mask, dtype=bool)
    sp = np.asarray(spacing, dtype=float)
    out = np.full(mask.shape, np.inf)
    fg = np.argwhere(mask).astype(float)
    if len(fg) == 0:
        return out
    all_idx = np.argwhere(np.ones(mask.shape, dtype=bool)).astype(float)
    diff = (all_idx[:, None, :] - fg[None, :, :]) * sp
    dist = np.sqrt((diff**2).sum(axis=-1)).min(axis=1)
    return dist.reshape(mask.shape)


def surface_ref(mask) -> np.ndarray:
    """Foreground voxels with a background (or out-of-grid) face neighbor."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    out = np.zeros_like(mask)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z]:
                    continue
                for dx, dy, dz in FACE_OFFSETS:
                    xx, yy, zz = x + dx, y + dy, z + dz
                    if not (0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz) or not mask[xx, yy, zz]:
                        out[x, y, z] = True
                        break
    return out


def nsd_ref(pred, gt, spacing, tau: float) -> float:
    ps = surface_ref(pred)
    gs = surface_ref(gt)
    n_p, n_g = int(ps.sum()), int(gs.sum())
    if n_p == 0 and n_g == 0:
        return 1.0
    if n_p == 0 or n_g == 0:
        return 0.0
    sp = np.asarray(spacing, dtype=float)
    pc = np.argwhere(ps) * sp
    gc = np.argwhere(gs) * sp
    d = np.sqrt(((pc[:, None, :] - gc[None, :, :]) ** 2).sum(axis=-1))
    close = int((d.min(axis=1) <= tau).sum()) + int((d.min(axis=0) <= tau).sum())
    return close / (n_p + n_g)


def vote_ref(sources, priority, min_votes=None) -> np.ndarray:
    """Per-voxel tally; ties go to the earliest priority source whose own
    vote is among the tied classes."""
    names = [n for n, _ in sources]
    arrs = [np.asarray(a) for _, a in sources]
    rank = {n: i for i, n in enumerate(priority)}
    order = sorted(range(len(sources)), key=lambda i: rank[names[i]])
    out = np.zeros(arrs[0].shape, dtype=np.uint8)
    for idx in np.ndindex(arrs[0].shape):
        votes = [int(a[idx]) for a in arrs]
        tally = Counter(votes)
        best = max(tally.values())
        tied = {c for c, k in tally.items() if k == best}
        winner = next(votes[i] for i in order if votes[i] in tied)
        if min_votes is not None and winner != 0 and tally[winner] < min_votes:
            winner = 0
        out[idx] = winner
    return out


def components_ref(mask, connectivity: int):
    """BFS flood fill; components numbered by first encounter in the
    x-fastest (Fortran flat) scan order.  Returns (labels, sizes)."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    offsets = FACE_OFFSETS if connectivity == 6 else ALL_OFFSETS
    labels = np.zeros(mask.shape, dtype=np.int32)
    sizes = []
    for k in range(mask.size):
        x = k % nx
        y = (k // nx) % ny
        z = k // (nx * ny)
        if not mask[x, y, z] or labels[x, y, z]:
            continue
        comp_id = len(sizes) + 1
        labels[x, y, z] = comp_id
        queue = deque([(x, y, z)])
        count = 0
        while queue:
            cx, cy, cz = queue.popleft()
            count += 1
            for dx, dy, dz in offsets:
                xx, yy, zz = cx + dx, cy + dy, cz + dz
                if 0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz:
                    if mask[xx, yy, zz] and not labels[xx, yy, zz]:
                        labels[xx, yy, zz] = comp_id
                        queue.append((xx, yy, zz))
        sizes.append(count)
    return labels, sizes


def auc_ref(samples, floor_gb: float, steps: int = 200_000) -> float:
    """Dense midpoint integration of the clipped piecewise-linear curve."""
    ts = np.array([t for t, _ in samples], dtype=float)
    gb = np.array([m for _, m in samples], dtype=float) / 1024.0**3
    grid = np.linspace(ts[0], ts[-1], steps)
    mids = (grid[:-1] + grid[1:]) / 2
    vals = np.interp(mids, ts, gb) - floor_gb
    vals[vals < 0] = 0.0
    return float((vals * np.diff(grid)).sum())


def flip_ref(data, spec) -> np.ndarray:
    """``data`` with each of its last three axes that ``spec`` flags
    reversed by ``np.flip``, without ``FlipSpec.reverse``."""
    flags = (spec.flip_x, spec.flip_y, spec.flip_z)
    lead = np.ndim(data) - 3
    return np.flip(data, axis=tuple(lead + i for i, f in enumerate(flags) if f))
