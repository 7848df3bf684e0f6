import io
import random
import warnings

import numpy as np
import pytest

import predcorr.ratings
from predcorr import RatingsDataset, filter_min_counts, load_ratings, make_mf, synth_ratings
from predcorr.cli import EXIT_USAGE, main


def write(tmp_path, text, name="ratings.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRatingsDataset:
    @staticmethod
    def build(users, items, n_users=3, n_items=2):
        n = len(users)
        return RatingsDataset(
            np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
            np.ones(n), np.arange(n, dtype=np.int64), n_users, n_items,
        )

    def test_ids_at_range_ends_are_accepted(self):
        ds = self.build([0, 2], [1, 0])
        assert len(ds) == 2

    @pytest.mark.parametrize("users, items, kind", [
        ([0, 3], [0, 1], "user"),    # an id equal to the count
        ([-1, 2], [0, 1], "user"),
        ([0, 2], [0, 2], "item"),
        ([0, 2], [-1, 1], "item"),
    ])
    def test_ids_outside_their_range_are_rejected(self, users, items, kind):
        with pytest.raises(ValueError, match=rf"{kind} ids must lie in \[0, n_{kind}s\)"):
            self.build(users, items)


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

    def test_bad_line_after_skipped_lines_names_its_file_line(self, tmp_path):
        path = write(
            tmp_path,
            "# header\n\n   \n  # indented comment\n1,1,1.0,5\n\t\n1,x,2.0,6\n",
        )
        with pytest.raises(ValueError, match=r"ratings\.csv:7: "):
            load_ratings(path)

    @pytest.mark.parametrize("bad", ["1.0,1,2.0,6", "1,1,2.0,6,7", f"1,{2**63},2.0,6"],
                             ids=["float_id", "fifth_field", "id_past_int64"])
    def test_bad_field_names_its_line(self, tmp_path, bad):
        path = write(tmp_path, f"1,1,1.0,5\n  \n{bad}\n")
        with pytest.raises(ValueError, match=r"ratings\.csv:3: "):
            load_ratings(path)


def reference_parse(text):
    """The ratings grammar, one line at a time: rows in file order."""
    rows = []
    for raw in io.StringIO(text, newline=None):   # universal newlines, like open()
        line = raw.split("#", 1)[0].strip()
        if line:
            u, i, r, t = line.split(",")
            rows.append((int(u), int(i), float(r), int(t)))
    return rows


# Lines the one-pass parse rejects and the line-by-line parse skips.
BLANK_LINES = [" ", "\t \t", "   # indented comment"]


def random_ratings_text(rng, blank_lines):
    """Ratings in the spellings ``int``/``float`` accept, mixed with comments
    and empty lines, plus ``blank_lines`` lines from ``BLANK_LINES``."""
    pad = ["", " ", "  ", "\t"]
    values = ["nan", "-nan", "inf", "-inf", "Infinity", "3", "-0.0", "1E-5", ".5", "+2.5e+3"]
    newline = rng.choice(["\n", "\r\n"])
    lines = []
    for _ in range(rng.randrange(1, 60)):
        kind = rng.random()
        if kind < 0.1:
            lines.append("# a comment, with, commas")
        elif kind < 0.15:
            lines.append("")
        else:
            fields = [
                str(rng.randrange(-5, 5)),                    # repeated, negative ids
                str(rng.choice([rng.randrange(-10**12, 10**12), rng.randrange(3)])),
                rng.choice(values + [repr(rng.uniform(-5, 5)), f"{rng.gauss(0, 1e6):.9e}"]),
                str(rng.randrange(-3, 4)),                    # timestamp ties
            ]
            line = ",".join(rng.choice(pad) + f + rng.choice(pad) for f in fields)
            if rng.random() < 0.2:
                line += " # inline comment"
            lines.append(line)
    lines.append("0,0,1.0,0")   # at least one rating
    for _ in range(blank_lines):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(BLANK_LINES))
    return newline.join(lines) + rng.choice(["", newline])


@pytest.mark.parametrize("blank_lines", [0, 3], ids=["fast_path", "fallback"])
@pytest.mark.parametrize("seed", range(10))
def test_random_files_load_like_the_reference_parser(tmp_path, monkeypatch, seed, blank_lines):
    text = random_ratings_text(random.Random(seed), blank_lines)
    path = tmp_path / "ratings.csv"
    path.write_bytes(text.encode("utf-8"))
    fallbacks = []
    parse_lines = predcorr.ratings._parse_lines
    monkeypatch.setattr(
        predcorr.ratings, "_parse_lines", lambda p: fallbacks.append(p) or parse_lines(p)
    )
    ds = load_ratings(path)
    # the one-pass parse takes every file without blank lines
    assert bool(fallbacks) == bool(blank_lines)

    rows = reference_parse(text)
    order = sorted(range(len(rows)), key=lambda j: rows[j][3])   # stable
    users = sorted({r[0] for r in rows})
    items = sorted({r[1] for r in rows})
    assert ds.users.tolist() == [users.index(rows[j][0]) for j in order]
    assert ds.items.tolist() == [items.index(rows[j][1]) for j in order]
    assert ds.timestamps.tolist() == [rows[j][3] for j in order]
    assert ds.values.tobytes() == np.array([rows[j][2] for j in order]).tobytes()
    assert (ds.n_users, ds.n_items) == (len(users), len(items))


MF_FILE_RUN = """
[experiment]
problem = mf_file
h = 0.01
steps = 3
x0 = randn
compute_gap = never
mf_latent_dim = 2
mf_reveal_per_step = 1
mf_initial_revealed = 1

[solver tvgd]
algorithm = tvgd
C = 1
beta = 0.5
"""


def test_comment_only_file_is_one_error_line_at_the_cli(tmp_path, capsys):
    cfg = write(tmp_path, MF_FILE_RUN, name="exp.ini")
    ratings = write(tmp_path, "# only comments\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(cfg), "--ratings", str(ratings),
                     "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.strip().split("\n")
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0] == f"error: {ratings}: no ratings found"


def old_next_same_pair(users, items, n_items):
    """The duplicate-pair index as make_mf once computed it per call."""
    n = len(users)
    key = users.astype(np.int64) * n_items + items
    order = np.lexsort((np.arange(n), key))
    nxt = np.full(n, n + 1, dtype=np.int64)
    same = key[order[:-1]] == key[order[1:]]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


class TestNextSame:
    def test_matches_the_per_call_index_on_repeated_pairs(self):
        ds = synth_ratings(6, 5, 300, 2, 0.1, seed=2)   # 300 ratings over 30 pairs
        assert len(set(zip(ds.users.tolist(), ds.items.tolist()))) < len(ds)
        expected = old_next_same_pair(ds.users, ds.items, ds.n_items)
        assert np.array_equal(ds.next_same, expected)
        assert not ds.next_same.flags.writeable

    def test_two_oracles_share_one_index(self, monkeypatch):
        ds = synth_ratings(6, 5, 300, 2, 0.1, seed=2)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        for step_period in (0.01, 0.02):
            make_mf(ds, 2, 0.01, reveal_per_step=5, initial_revealed=10,
                    step_period=step_period)
        assert len(calls) == 1


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
