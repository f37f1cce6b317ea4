"""Seeded synthetic image classes for the benchmark workloads.

These stand in for MNIST: nothing can be downloaded where the benchmark
runs, and no MNIST files are committed. Each class is a bar through the centre
(horizontal, vertical, diagonal, anti-diagonal) with a small position jitter,
random contrast and per-pixel noise, so one class template per orientation
separates them and an STDP-trained layer can learn it. The same seed always
gives the same images.
"""

from __future__ import annotations

import numpy as np

from spikeforge.encoding import Sample

CLASSES = ("horizontal", "vertical", "diagonal", "antidiagonal")


def _image(cls: int, side: int, rng: np.random.Generator) -> np.ndarray:
    y, x = np.mgrid[0:side, 0:side]
    centre = (side - 1) / 2
    # signed distance from the class's central line: a horizontal bar, a
    # vertical bar, or a band along one of the two diagonals
    dist = (y - centre, x - centre, (x - y) / 1.4142, (x + y - 2 * centre) / 1.4142)[cls]
    shift = rng.uniform(-1.0, 1.0) * side / 14
    on = np.abs(dist - shift) < side / 6
    contrast = rng.uniform(0.8, 1.0)
    img = np.where(on, contrast, 0.05) + rng.normal(0.0, 0.08, on.shape)
    return np.clip(img, 0.0, 1.0).ravel()


def make_split(side: int, per_class: int, rng: np.random.Generator) -> list[Sample]:
    """per_class images of each class, interleaved by class (0, 1, 2, 3, 0, ...)."""
    return [Sample(tuple(float(v) for v in _image(cls, side, rng)), cls)
            for _ in range(per_class) for cls in range(len(CLASSES))]


def make_dataset(seed: int, side: int, train: int, val: int, test: int):
    """(train, validation, test) splits with the given images per class each.

    Each split draws from its own child of the seed, so resizing one split
    leaves the others unchanged.
    """
    children = np.random.SeedSequence([seed, side]).spawn(3)
    return tuple(make_split(side, n, np.random.default_rng(child))
                 for n, child in zip((train, val, test), children))
