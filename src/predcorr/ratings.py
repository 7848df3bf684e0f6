"""Ratings-stream ingestion and generation for the factorization benchmark.

The on-disk format is one rating per line, ``user_id,item_id,rating,
timestamp`` with integer ids and timestamps; ``#`` starts a comment.  After
loading, ratings are in chronological order and ids are densely remapped.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Array, rng_from_seed


@dataclass(frozen=True)
class RatingsDataset:
    """Chronologically ordered ratings with dense user/item ids.

    Duplicate (user, item) pairs are retained: consumers that reveal the
    stream one prefix at a time treat a later rating of the same pair as
    overwriting the earlier one (``next_same``).  Construction rejects ids
    outside their ranges and makes the arrays read-only, so oracles built
    from one dataset share them.
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
        for kind, ids, count in (
            ("user", self.users, self.n_users),
            ("item", self.items, self.n_items),
        ):
            if ids.min() < 0 or ids.max() >= count:
                raise ValueError(f"{kind} ids must lie in [0, n_{kind}s)")
        for array in (self.users, self.items, self.values, self.timestamps):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def next_same(self) -> Array:
        """For each rating, index of the next later rating of the same (u, i).

        Ratings with no later duplicate get an index past the end.  A prefix
        of length n keeps only the latest rating per pair: entry j is live
        under it iff ``next_same[j] >= n``.  Computed once per dataset and
        read-only, like the other arrays.
        """
        n = len(self)
        key = self.users.astype(np.int64) * self.n_items + self.items
        order = np.lexsort((np.arange(n), key))
        nxt = np.full(n, n + 1, dtype=np.int64)
        same = key[order[:-1]] == key[order[1:]]
        nxt[order[:-1][same]] = order[1:][same]
        nxt.flags.writeable = False
        return nxt

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


# One file line as loadtxt reads it.
_ROW = np.dtype(
    [("user", np.int64), ("item", np.int64), ("value", np.float64), ("stamp", np.int64)]
)


def _parse_fast(path) -> tuple[Array, Array, Array, Array]:
    """Parse the whole file in one C-level pass.

    Raises ``ValueError`` on any line it cannot read, including lines that
    ``_parse_lines`` skips (whitespace only, or indented comments).
    """
    with warnings.catch_warnings():
        # An empty file is reported by load_ratings itself.
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        rows = np.loadtxt(
            path, dtype=_ROW, delimiter=",", comments="#", ndmin=1, encoding="utf-8"
        )
    return rows["user"], rows["item"], rows["value"], rows["stamp"]


def _parse_lines(path) -> tuple[Array, Array, Array, Array]:
    """Parse the file line by line, naming the first malformed line.

    This is the reference grammar: ``#`` starts a comment, lines that are
    empty after it is removed are skipped, and each other line holds four
    comma-separated fields that ``int``/``float`` accept.  Fields go into
    typed 8-byte buffers, not lists of boxed numbers, which bounds the
    parse's peak memory.
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
    return (
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(values, dtype=float),
        np.asarray(stamps, dtype=np.int64),
    )


def load_ratings(path) -> RatingsDataset:
    """Load a ratings file, sort it chronologically, and densify the ids.

    The file is first parsed in one C-level pass (``np.loadtxt``).  When
    that pass rejects the file, it is parsed again line by line
    (``_parse_lines``, the reference grammar), which also accepts
    whitespace-only lines and indented comments, and which raises with the
    ``path:line`` of the first malformed line, including ids or timestamps
    outside int64.  Any file both passes accept gives the same arrays; a
    file with no ratings is an error.  The sort is stable, so ratings
    sharing a timestamp keep their file order.
    """
    try:
        users, items, values, stamps = _parse_fast(path)
    except ValueError:
        users, items, values, stamps = _parse_lines(path)
    if not len(values):
        raise ValueError(f"{path}: no ratings found")

    order = np.argsort(stamps, kind="stable")
    # Every column is reordered before any id is remapped, so the parsed
    # buffers are freed before np.unique allocates its temporaries.
    users, items, values, stamps = users[order], items[order], values[order], stamps[order]
    del order
    users, n_users = _dense_remap(users)
    items, n_items = _dense_remap(items)
    return RatingsDataset(users, items, values, stamps, n_users, n_items)


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
