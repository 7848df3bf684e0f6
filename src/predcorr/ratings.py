"""Ratings-stream ingestion and generation for the factorization benchmark.

The on-disk format is one rating per line, ``user_id,item_id,rating,
timestamp`` with integer ids and timestamps; ``#`` starts a comment.  After
loading, ratings are in chronological order and ids are densely remapped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .core import Array, rng_from_seed


@dataclass(frozen=True)
class RatingsDataset:
    """Chronologically ordered ratings with dense user/item ids.

    Duplicate (user, item) pairs are retained: consumers that reveal the
    stream one prefix at a time treat a later rating of the same pair as
    overwriting the earlier one.  The arrays are made read-only on
    construction, so oracles built from one dataset share them.
    """

    users: Array       # int64 in [0, n_users)
    items: Array       # int64 in [0, n_items)
    values: Array      # float64
    timestamps: Array  # int64, non-decreasing
    n_users: int
    n_items: int

    def __post_init__(self):
        n = len(self.values)
        if not (len(self.users) == len(self.items) == len(self.timestamps) == n):
            raise ValueError("ratings arrays must have equal length")
        if n == 0:
            raise ValueError("dataset contains no ratings")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError("ratings must be sorted by timestamp")
        for array in (self.users, self.items, self.values, self.timestamps):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.values)

    def ratings(self) -> list[tuple[int, int, float, int]]:
        """Ratings as (user, item, value, timestamp) tuples, in order."""
        return list(
            zip(
                self.users.tolist(),
                self.items.tolist(),
                self.values.tolist(),
                self.timestamps.tolist(),
            )
        )


def _dense_remap(ids: Array) -> tuple[Array, int]:
    uniq, inverse = np.unique(ids, return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def load_ratings(path) -> RatingsDataset:
    """Load a ratings file, sort it chronologically, and densify the ids.

    The sort is stable, so ratings sharing a timestamp keep their file
    order.  Malformed lines, and ids or timestamps outside int64, raise with
    the offending line number; a file with no ratings is an error.  Fields
    go into typed 8-byte buffers, not lists of boxed numbers, which bounds
    the parse's peak memory.
    """
    users, items, values, stamps = array("q"), array("q"), array("d"), array("q")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 'user,item,rating,timestamp', got {raw.rstrip()!r}"
                )
            try:
                users.append(int(parts[0]))
                items.append(int(parts[1]))
                values.append(float(parts[2]))
                stamps.append(int(parts[3]))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no ratings found")

    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    stamps = np.asarray(stamps, dtype=np.int64)

    order = np.argsort(stamps, kind="stable")
    users, n_users = _dense_remap(users[order])
    items, n_items = _dense_remap(items[order])
    return RatingsDataset(users, items, values[order], stamps[order], n_users, n_items)


def filter_min_counts(ds: RatingsDataset, min_user: int = 0, min_item: int = 0) -> RatingsDataset:
    """Drop users/items with too few ratings, repeating until stable.

    Removing a sparse user can push one of its items below threshold and
    vice versa, so the filter alternates until a fixed point.  Ids are
    densified again afterwards.  Raises if nothing survives.
    """
    if min_user < 0 or min_item < 0:
        raise ValueError("thresholds must be >= 0")
    keep = np.ones(len(ds), dtype=bool)
    while True:
        u, i = ds.users[keep], ds.items[keep]
        if len(u) == 0:
            raise ValueError("filtering removed every rating")
        cu = np.bincount(u, minlength=ds.n_users)
        ci = np.bincount(i, minlength=ds.n_items)
        new_keep = keep & (cu[ds.users] >= min_user) & (ci[ds.items] >= min_item)
        if np.array_equal(new_keep, keep):
            break
        keep = new_keep
    if not np.any(keep):
        raise ValueError("filtering removed every rating")
    users, n_users = _dense_remap(ds.users[keep])
    items, n_items = _dense_remap(ds.items[keep])
    return RatingsDataset(
        users, items, ds.values[keep].copy(), ds.timestamps[keep].copy(), n_users, n_items
    )


def synth_ratings(
    n_users: int,
    n_items: int,
    n_ratings: int,
    latent_dim: int,
    noise_sd: float,
    seed: int,
) -> RatingsDataset:
    """Generate a synthetic low-rank ratings stream.

    Ground-truth factors have independent unit-variance entries; each rating
    is the factor inner product of a uniformly random (user, item) pair plus
    Gaussian noise, stamped with increasing timestamps.  A rating's variance
    is therefore ``latent_dim + noise_sd**2``.  Deterministic per seed.
    """
    if min(n_users, n_items, n_ratings, latent_dim) < 1:
        raise ValueError("counts must be >= 1")
    rng = rng_from_seed(seed)
    P = rng.standard_normal((n_users, latent_dim))
    Q = rng.standard_normal((n_items, latent_dim))
    u = rng.integers(0, n_users, size=n_ratings)
    i = rng.integers(0, n_items, size=n_ratings)
    vals = np.einsum("jf,jf->j", P[u], Q[i])
    if noise_sd > 0:
        vals = vals + noise_sd * rng.standard_normal(n_ratings)
    return RatingsDataset(
        users=u.astype(np.int64),
        items=i.astype(np.int64),
        values=vals,
        timestamps=np.arange(n_ratings, dtype=np.int64),
        n_users=n_users,
        n_items=n_items,
    )
