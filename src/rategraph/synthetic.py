"""Synthetic benchmark data with the rating-bound pathology built in."""

from __future__ import annotations

import numpy as np

from .data import RatingMatrix

__all__ = ["tent_ring_dataset"]


def tent_ring_dataset(
    seed: int,
    n_users: int = 120,
    n_items: int = 40,
    density: float = 0.55,
    noise: float = 0.05,
) -> RatingMatrix:
    """Users with tent-shaped preferences over a ring of items.

    Each user rates 5 stars at a loved pole, sloping linearly down to 1
    star at the antipode, plus a little uniform noise. The rating function
    is linear everywhere except the two poles, so held-out pole ratings sit
    strictly outside their observed neighborhoods: exactly the examples a
    bounded neighborhood estimator cannot reach. Item columns of users with
    random poles correlate by ring proximity, so the Pearson graph built
    from the training side recovers the ring at a high threshold (~0.9).
    """
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(n_items) / n_items
    users: list[str] = []
    items: list[str] = []
    ratings: list[float] = []
    for u in range(n_users):
        phi = 2 * np.pi * rng.integers(0, n_items) / n_items
        dist = np.abs((theta - phi + np.pi) % (2 * np.pi) - np.pi)
        vals = np.clip(5.0 - (4.0 / np.pi) * dist + rng.uniform(-noise, noise, n_items), 1, 5)
        rated = np.flatnonzero(rng.uniform(size=n_items) < density)
        users += [f"u{u}"] * rated.size
        items += [f"i{i}" for i in rated]
        ratings += np.round(vals[rated], 3).tolist()
    return RatingMatrix.from_ids((1.0, 5.0), users, items, ratings)
