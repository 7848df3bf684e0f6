import numpy as np
import pytest

from predcorr import RatingsDataset, filter_min_counts, load_ratings, synth_ratings


def write(tmp_path, text, name="ratings.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadRatings:
    def test_sorts_by_timestamp_and_remaps_ids(self, tmp_path):
        path = write(
            tmp_path,
            "# header comment\n"
            "9,100,3.5,20\n"
            "5,100,1.0,10\n"
            "\n"
            "9,300,4.0,15   # inline comment\n",
        )
        ds = load_ratings(path)
        assert list(ds.timestamps) == [10, 15, 20]
        # ids {5, 9} -> {0, 1}, items {100, 300} -> {0, 1}
        assert ds.n_users == 2 and ds.n_items == 2
        assert list(ds.users) == [0, 1, 1]
        assert list(ds.items) == [0, 1, 0]
        assert list(ds.values) == [1.0, 4.0, 3.5]

    def test_stable_order_among_equal_timestamps(self, tmp_path):
        path = write(tmp_path, "1,1,1.0,5\n2,2,2.0,5\n3,3,3.0,5\n")
        ds = load_ratings(path)
        assert list(ds.values) == [1.0, 2.0, 3.0]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "1,1,1.0,5\n1,2,oops,6\n")
        with pytest.raises(ValueError, match=":2"):
            load_ratings(path)
        path = write(tmp_path, "1,1,1.0\n", name="short.csv")
        with pytest.raises(ValueError, match=":1"):
            load_ratings(path)

    def test_id_outside_int64_reports_line_number(self, tmp_path):
        path = write(tmp_path, f"1,1,1.0,5\n1,{2**63},2.0,6\n")
        with pytest.raises(ValueError, match=":2"):
            load_ratings(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = write(tmp_path, "# only comments\n\n")
        with pytest.raises(ValueError, match="no ratings"):
            load_ratings(path)

    def test_duplicates_are_retained(self, tmp_path):
        path = write(tmp_path, "1,1,1.0,0\n1,1,5.0,1\n")
        ds = load_ratings(path)
        assert len(ds) == 2
        assert list(ds.values) == [1.0, 5.0]

    def test_ratings_tuples_roundtrip(self, tmp_path):
        path = write(tmp_path, "4,7,2.5,3\n4,8,1.5,9\n")
        ds = load_ratings(path)
        assert ds.ratings() == [(0, 0, 2.5, 3), (0, 1, 1.5, 9)]


class TestFilterMinCounts:
    def make(self, pairs):
        u = np.array([p[0] for p in pairs], dtype=np.int64)
        i = np.array([p[1] for p in pairs], dtype=np.int64)
        n = len(pairs)
        return RatingsDataset(
            u, i, np.arange(n, dtype=float), np.arange(n, dtype=np.int64),
            int(u.max()) + 1, int(i.max()) + 1,
        )

    def test_zero_thresholds_are_noop(self):
        ds = self.make([(0, 0), (1, 1), (2, 0)])
        out = filter_min_counts(ds, 0, 0)
        assert np.array_equal(out.users, ds.users)
        assert np.array_equal(out.values, ds.values)

    def test_degenerate_all_removed(self):
        ds = self.make([(0, 0)])
        with pytest.raises(ValueError, match="every rating"):
            filter_min_counts(ds, min_user=2, min_item=0)

    def test_cascading_removal_reaches_fixed_point(self):
        # dropping the sparse user starves item 0, which then starves user 1
        pairs = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 1)]
        out = filter_min_counts(self.make(pairs), min_user=2, min_item=2)
        assert len(out) == 2
        assert out.n_users == 1 and out.n_items == 1
        assert list(out.values) == [3.0, 4.0]  # the two (2, 1) ratings survive

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_min_counts(self.make([(0, 0)]), min_user=-1)


class TestSynthRatings:
    def test_deterministic_per_seed(self):
        a = synth_ratings(20, 15, 500, 3, 0.2, seed=9)
        b = synth_ratings(20, 15, 500, 3, 0.2, seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.users, b.users)
        assert not np.array_equal(a.values, synth_ratings(20, 15, 500, 3, 0.2, seed=10).values)

    def test_timestamps_increase(self):
        ds = synth_ratings(5, 5, 50, 2, 0.0, seed=0)
        assert np.all(np.diff(ds.timestamps) > 0)

    def test_rank_one_noiseless_stream_is_multiplicative(self):
        # with one latent factor and no noise, ratings form a rank-1 matrix:
        # cross ratios of any 2x2 block of observed entries agree
        ds = synth_ratings(5, 4, 200, 1, 0.0, seed=3)
        matrix = np.full((5, 4), np.nan)
        for u, i, v, _ in ds.ratings():
            matrix[u, i] = v  # later ratings overwrite, consistent values anyway
        checked = 0
        for u1 in range(5):
            for u2 in range(u1 + 1, 5):
                for i1 in range(4):
                    for i2 in range(i1 + 1, 4):
                        block = matrix[[u1, u1, u2, u2], [i1, i2, i1, i2]]
                        if np.any(np.isnan(block)) or np.any(np.abs(block) < 1e-9):
                            continue
                        assert block[0] * block[3] == pytest.approx(
                            block[1] * block[2], rel=1e-10
                        )
                        checked += 1
        assert checked > 0

    def test_variance_matches_latent_dimension(self):
        # each rating is a sum of latent_dim unit-variance products plus
        # noise; enough distinct users/items keeps factor reuse from
        # dominating the estimate
        ds = synth_ratings(300, 300, 10_000, 5, 0.3, seed=1)
        assert np.var(ds.values) == pytest.approx(5.0 + 0.09, rel=0.10)

    def test_rejects_empty_requests(self):
        with pytest.raises(ValueError):
            synth_ratings(0, 5, 10, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_ratings(5, 5, 10, 0, 0.0, seed=0)
