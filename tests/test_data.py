import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rategraph import data as data_module
from rategraph import (
    RatingMatrix,
    RatingParseError,
    RatingRecord,
    parse_ratings,
    split_ratings,
    second_derivative,
    sources,
    write_test_manifest,
)

ML_LINE = "1::1193::5::978300760\n"


class TestParseMovieLens:
    def test_single_line(self):
        m = parse_ratings(io.StringIO(ML_LINE), "movielens_dat", (1, 5))
        assert m.n_users == 1 and m.n_items == 1 and m.n_ratings == 1
        rec = next(m.records())
        assert rec.user_id == "1" and rec.item_id == "1193" and rec.rating == 5.0

    def test_empty_stream(self):
        m = parse_ratings(io.StringIO(""), "movielens_dat", (1, 5))
        assert (m.n_users, m.n_items, m.n_ratings) == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(RatingParseError, match="line 2"):
            parse_ratings(io.StringIO("1::1::5::0\n1::2::6::0\n"), "movielens_dat", (1, 5))

    def test_malformed_line_number(self):
        stream = io.StringIO("1::1::5::0\n1::2::5::0\ngarbage\n")
        with pytest.raises(RatingParseError, match="line 3"):
            parse_ratings(stream, "movielens_dat", (1, 5))

    def test_duplicate_pair_rejected(self):
        stream = io.StringIO("1::1::5::0\n1::1::4::0\n")
        with pytest.raises(RatingParseError, match="duplicate"):
            parse_ratings(stream, "movielens_dat", (1, 5))

    def test_bad_rating_text(self):
        with pytest.raises(RatingParseError, match="rating"):
            parse_ratings(io.StringIO("1::1::five::0\n"), "movielens_dat", (1, 5))

    def test_ids_are_opaque_strings(self):
        m = parse_ratings(io.StringIO("007::0042::3::0\n"), "movielens_dat", (1, 5))
        assert m.users == ["007"] and m.items == ["0042"]


class TestParseCsv:
    def test_header_and_rows(self):
        text = "user,item,rating,timestamp\na,x,2.5,123\nb,y,4,\n"
        m = parse_ratings(io.StringIO(text), "csv", (1, 5))
        assert m.n_ratings == 2
        assert [r.rating for r in m.records()] == [2.5, 4.0]

    def test_out_of_range_names_line_two(self):
        with pytest.raises(RatingParseError, match="line 2"):
            parse_ratings(io.StringIO("user,item,rating\n1,5,6\n"), "csv", (1, 5))

    def test_bad_header(self):
        with pytest.raises(RatingParseError, match="header"):
            parse_ratings(io.StringIO("a,b,c\n1,2,3\n"), "csv", (1, 5))

    def test_empty_stream(self):
        m = parse_ratings(io.StringIO(""), "csv", (1, 5))
        assert m.n_ratings == 0

    def test_bad_timestamp(self):
        with pytest.raises(RatingParseError, match="timestamp"):
            parse_ratings(io.StringIO("user,item,rating,timestamp\na,x,3,later\n"), "csv", (1, 5))


class TestRoundTrip:
    def test_csv_round_trip_exact(self):
        rng = np.random.default_rng(11)
        m = RatingMatrix.from_ids(
            (1, 5),
            [f"u{k % 13}" for k in range(200)],
            [f"i{k % 31}" for k in range(200)],
            rng.uniform(1, 5, size=200),
        )
        text = "user,item,rating\n" + "".join(f"{u},{i},{r!r}\n" for u, i, r in m.records())
        again = parse_ratings(io.StringIO(text), "csv", (1, 5))
        assert m.equals(again)

    def test_first_occurrence_indexing_is_stable(self):
        text = "user,item,rating\nb,y,3\na,x,4\nb,x,2\n"
        m1 = parse_ratings(io.StringIO(text), "csv", (1, 5))
        m2 = parse_ratings(io.StringIO(text), "csv", (1, 5))
        assert m1.users == m2.users == ["b", "a"]
        assert m1.items == m2.items == ["y", "x"]


class TestSplit:
    @staticmethod
    def _matrix(n):
        return RatingMatrix.from_ids((1, 5), [f"u{k}" for k in range(n)], [f"i{k}" for k in range(n)], [3.0] * n)

    def test_ten_records_eight_two(self):
        split = split_ratings(self._matrix(10), fraction=0.8, seed=7)
        assert split.train.n_ratings == 8
        assert len(split.test) == 2

    def test_deterministic(self):
        m = self._matrix(50)
        a = split_ratings(m, 0.8, seed=3)
        b = split_ratings(m, 0.8, seed=3)
        assert [r for r in a.test] == [r for r in b.test]
        assert a.train.equals(b.train)

    def test_partition_property(self):
        m = self._matrix(40)
        all_keys = {(r.user_id, r.item_id) for r in m.records()}
        for seed in range(5):
            split = split_ratings(m, 0.7, seed=seed)
            train_keys = {(r.user_id, r.item_id) for r in split.train.records()}
            test_keys = {(r.user_id, r.item_id) for r in split.test}
            assert train_keys | test_keys == all_keys
            assert not (train_keys & test_keys)

    @given(
        n=st.integers(min_value=2, max_value=60),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_ratio_within_half_point(self, n, fraction, seed):
        split = split_ratings(self._matrix(n), fraction, seed)
        share = len(split.test) / n
        assert abs(share - (1 - fraction)) <= 0.005 + 0.5 / n

    def test_movielens_scale_band(self):
        n = 1_000_209
        # one synthetic record per rating: user u{k % 6040} rates item i{k}
        k = np.arange(n)
        m = RatingMatrix(
            (1, 5), [f"u{j}" for j in range(6040)], [f"i{j}" for j in range(n)], k % 6040, k, np.full(n, 3.0)
        )
        split = split_ratings(m, 0.8, seed=0)
        assert 199_042 <= len(split.test) <= 201_042
        assert split.train.n_ratings + len(split.test) == n

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split_ratings(self._matrix(5), 1.0, 0)

    def test_manifest_lines(self):
        split = split_ratings(self._matrix(10), 0.8, seed=7)
        buf = io.StringIO()
        write_test_manifest(split.test, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert all(len(line.split(",")) == 3 for line in lines)


def _reference_parse(stream, format, bounds):
    """Record-by-record parse: what parse_ratings did before it built columns.

    Returns (users, items, records) with records as (user, item, rating)
    tuples in file order, or raises RatingParseError at the first bad line.
    """
    c_l, c_h = float(bounds[0]), float(bounds[1])
    users, items, records, seen = {}, {}, [], set()
    lines = iter(enumerate(stream, start=1))
    if format == "csv":
        header = next(lines, None)
        if header is not None:
            lineno, line = header
            cols = [c.strip() for c in line.rstrip("\n").split(",")]
            if cols[:3] != ["user", "item", "rating"]:
                raise RatingParseError(lineno, f"bad csv header {line.rstrip()!r}")
    for lineno, raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("::" if format == "movielens_dat" else ",")
        if len(parts) not in (3, 4):
            raise RatingParseError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
        user, item = parts[0], parts[1]
        if not user or not item:
            raise RatingParseError(lineno, "empty user or item id")
        try:
            rating = float(parts[2])
        except ValueError:
            raise RatingParseError(lineno, f"bad rating {parts[2]!r}") from None
        if len(parts) == 4 and parts[3]:
            try:
                int(parts[3])
            except ValueError:
                raise RatingParseError(lineno, f"bad timestamp {parts[3]!r}") from None
        if not (c_l <= rating <= c_h):
            raise RatingParseError(lineno, f"rating {rating} outside [{c_l}, {c_h}]")
        users.setdefault(user, len(users))
        items.setdefault(item, len(items))
        if (user, item) in seen:
            raise RatingParseError(lineno, f"duplicate rating for user {user!r}, item {item!r}")
        seen.add((user, item))
        records.append((user, item, rating))
    return list(users), list(items), records


def _reference_split(records, fraction, seed):
    """Record-by-record split: (train users, train items, train records, test records)."""
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(len(records))
    test_pos = set(perm[: int(round((1 - fraction) * len(records)))].tolist())
    users, items, train, test = {}, {}, [], []
    for pos, (user, item, rating) in enumerate(records):
        if pos in test_pos:
            test.append((user, item, rating))
        else:
            users.setdefault(user, len(users))
            items.setdefault(item, len(items))
            train.append((user, item, rating))
    return list(users), list(items), train, test


def _triples(records):
    out = [(r.user_id, r.item_id, r.rating) for r in records]
    assert all(type(r) is float for _, _, r in out)
    return out


_GOOD_USERS = st.sampled_from(["1", "2", "3", "a", "007", "x:", ":y", "é", "日本", "ü:"])
_GOOD_ITEMS = st.one_of(st.integers(0, 30).map(str), st.sampled_from(["ß", ":7", "7:"]))
_GOOD_RATINGS = st.sampled_from(["1", "3.5", "5", "5.0", "4.25", " 2 "])
_ANY_IDS = st.sampled_from(["1", "a", "x:", "", " ", "5\n4", "\n7", "é"])
_ANY_RATINGS = st.sampled_from(["3", "0.5", "6", "nan", "inf", "-1", "five", "", "3_0"])
_STAMPS = st.sampled_from(["", "0", "978300760", "later", "-5", "1.5"])


@st.composite
def _ratings_text(draw):
    """A csv or movielens_dat text, mostly good records mixed with every kind of bad line, and its line ending.

    Lines end in '\\n', read from a StringIO, or in '\\r', read from a byte
    stream opened with ``newline="\\r"``, where a field may hold '\\n'.
    """
    format = draw(st.sampled_from(["csv", "movielens_dat"]))
    sep = "," if format == "csv" else "::"
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r"]))
    lines = []
    if format == "csv":
        lines.append(draw(st.sampled_from(["user,item,rating", "user,item,rating,timestamp", "a,b,c"])))
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["good"] * 12 + ["stamp", "stamp", "blank", "fields", "wild", "cancel", "runs"]))
        if kind == "blank":
            lines.append("")
        elif kind == "fields":
            n_fields = draw(st.sampled_from([1, 2, 5]))
            lines.append(sep.join([draw(_GOOD_USERS), draw(_GOOD_ITEMS), "3", "0", "0"][:n_fields]))
        elif kind == "wild":
            lines.append(sep.join([draw(_ANY_IDS), draw(_ANY_IDS), draw(_ANY_RATINGS)]))
        elif kind == "cancel":
            # one line a field over and one a field short of 3 or 4 fields: the separators add up as if both were good
            n_fields = draw(st.sampled_from([3, 4]))
            fields = [str(draw(st.integers(0, 30))), str(draw(st.integers(0, 30))), "3", "0", "0"]
            pair = [sep.join(fields[:n_fields + 1]), sep.join(fields[:n_fields - 1])]
            lines.extend(pair if draw(st.booleans()) else pair[::-1])
        elif kind == "runs":
            # a separator with extra separator characters after it: ':::' runs in movielens_dat
            fields = [draw(_GOOD_USERS), draw(_GOOD_ITEMS), draw(_GOOD_RATINGS)]
            lines.append((sep + sep[0] * draw(st.integers(1, 3))).join(fields))
        else:
            fields = [draw(_GOOD_USERS), draw(_GOOD_ITEMS), draw(_GOOD_RATINGS)]
            lines.append(sep.join(fields + ([draw(_STAMPS)] if kind == "stamp" else [])))
    end = draw(st.sampled_from([newline, ""]))
    return format, newline.join(lines) + end if lines else "", newline


def _stream(text, newline):
    """``text`` as a stream whose lines end at ``newline``."""
    if newline == "\n":
        return io.StringIO(text)
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline=newline)


def _old_fast_fields(chunk, sep):
    """The fast path _tokenise took before it counted separators per chunk: its fields, or None where it fell back."""
    lines = [line.rstrip("\n") for line in chunk]
    widths = {line.count(sep) for line in lines}
    if widths != {2} and widths != {3}:
        return None
    k = widths.pop() + 1
    fields = "\n".join(lines).replace(sep, "\n").split("\n")
    users, items = fields[0::k], fields[1::k]
    if len(fields) != k * len(lines) or "" in users or "" in items:
        return None
    try:
        ratings = list(map(float, fields[2::k]))
        if k == 4:
            list(map(int, filter(None, fields[3::k])))
    except ValueError:
        return None
    return users, items, ratings


class TestAgainstRecordByRecord:
    """parse_ratings and split_ratings against the record-by-record reference."""

    @given(case=_ratings_text(), chunk=st.sampled_from([1, 2, 3, 4096]), seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_same_records_or_same_error(self, case, chunk, seed):
        format, text, newline = case
        try:
            want = _reference_parse(_stream(text, newline), format, (1, 5))
        except RatingParseError as exc:
            want = exc
        with mock.patch.object(data_module, "_CHUNK", chunk):
            try:
                got = parse_ratings(_stream(text, newline), format, (1, 5))
            except RatingParseError as exc:
                got = exc
            if isinstance(want, RatingParseError):
                assert isinstance(got, RatingParseError), text
                assert (got.lineno, str(got)) == (want.lineno, str(want))
                return
            assert not isinstance(got, Exception), got
            users, items, records = want
            assert (got.users, got.items, _triples(got.records())) == (users, items, records)
            if records:
                split = split_ratings(got, 0.7, seed)
                train_users, train_items, train, test = _reference_split(records, 0.7, seed)
                assert (split.train.users, split.train.items) == (train_users, train_items)
                assert _triples(split.train.records()) == train
                assert _triples(split.test) == test

    @given(case=_ratings_text(), chunk=st.sampled_from([1, 2, 3, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_fast_path_taken_where_it_was(self, case, chunk):
        """The per-chunk separator count takes the fast path on exactly the chunks the per-line count did.

        The one exception is a chunk holding '\\r', which now always goes line by line.
        """
        format, text, newline = case
        lines = list(_stream(text, newline))[format == "csv":]
        sep = "," if format == "csv" else "::"
        for lo in range(0, len(lines), chunk):
            part = lines[lo:lo + chunk]
            want = None if "\r" in "".join(part) else _old_fast_fields(part, sep)
            assert repr(data_module._fast_fields(part, sep)) == repr(want), part  # repr: nan equals nan

    def test_earliest_bad_line_wins(self):
        text = "1::1::5::0\n2::1::4::0\n1::1::3::0\n\n2::2::9::0\n1::3::4::0\ngarbage\n"
        with pytest.raises(RatingParseError, match="line 3: duplicate"):
            parse_ratings(io.StringIO(text), "movielens_dat", (1, 5))
        out_of_range_first = "1::1::5::0\n1::2::9::0\n1::1::3::0\ngarbage\n"
        with pytest.raises(RatingParseError, match="line 2: rating 9.0 outside"):
            parse_ratings(io.StringIO(out_of_range_first), "movielens_dat", (1, 5))
        malformed_first = "1::1::5::0\nbad\n1::1::3::0\n"
        with pytest.raises(RatingParseError, match="line 2: expected 3 or 4 fields"):
            parse_ratings(io.StringIO(malformed_first), "movielens_dat", (1, 5))
        # a record both out of range and a repeat fails the range check first, as it always did
        with pytest.raises(RatingParseError, match="line 2: rating 9.0 outside"):
            parse_ratings(io.StringIO("1::1::5::0\n1::1::9::0\n"), "movielens_dat", (1, 5))

    def test_newline_inside_a_line(self):
        """A stream that ends lines at '\\r' only can hold '\\n' inside a field."""
        data = b"a::5\n4::3\rb::2::1\r"

        def stream():
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\r")

        m = parse_ratings(stream(), "movielens_dat", (1, 5))
        assert (m.users, m.items, _triples(m.records())) == _reference_parse(stream(), "movielens_dat", (1, 5))
        assert m.items == ["5\n4", "2"]

    def test_line_starting_with_newline(self):
        """Joined, '\\r'-ended lines whose fields hold '\\n' can break at the wrong places: they go line by line."""
        data = b"1::2::3\r\n4::5::4\r"

        def stream():
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\r")

        m = parse_ratings(stream(), "movielens_dat", (1, 5))
        assert (m.users, m.items, _triples(m.records())) == _reference_parse(stream(), "movielens_dat", (1, 5))
        assert m.users == ["1", "\n4"]

    def test_ring_shaped_input_matches(self):
        rng = np.random.default_rng(5)
        rows = [(f"u{u}", f"i{i}", float(np.round(rng.uniform(1, 5), 3))) for u in range(60) for i in range(40)
                if rng.uniform() < 0.4]
        text = "user,item,rating\n" + "".join(f"{u},{i},{r!r}\n" for u, i, r in rows)
        m = parse_ratings(io.StringIO(text), "csv", (1, 5))
        assert (m.users, m.items, _triples(m.records())) == _reference_parse(io.StringIO(text), "csv", (1, 5))
        split = split_ratings(m, 0.8, 1)
        train_users, train_items, train, test = _reference_split(rows, 0.8, 1)
        assert (split.train.users, split.train.items, _triples(split.train.records())) == (
            train_users, train_items, train)
        assert _triples(split.test) == test


def _unique_reindex(codes, names):
    """The renumbering ``_reindex`` replaced: np.unique's first positions, sorted."""
    present, first = np.unique(codes, return_index=True)
    kept = present[np.argsort(first)]
    renumber = np.empty(len(names), dtype=np.int64)
    renumber[kept] = np.arange(kept.size)
    return renumber[codes], [names[k] for k in kept.tolist()]


class TestReindex:
    """Sort-free renumbering against the np.unique version."""

    @staticmethod
    def _check(codes, names):
        codes = np.array(codes, dtype=np.int64)
        got, want = data_module._reindex(codes, names), _unique_reindex(codes, names)
        assert got[0].dtype == want[0].dtype == np.int64
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])

    @given(n_names=st.integers(1, 12), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_reference(self, n_names, data):
        # codes drawn from fewer names than exist leave gaps; short lists repeat ids
        codes = data.draw(st.lists(st.integers(0, n_names - 1), max_size=40))
        self._check(codes, [f"n{k}" for k in range(n_names)])

    def test_edge_cases(self):
        names = ["a", "b", "c", "d", "e"]
        self._check([], names)
        self._check([], [])
        self._check([3], names)
        self._check([3, 3, 3], names)
        self._check([4, 0, 4, 2, 0], names)
        assert data_module._reindex(np.array([4, 0, 4, 2, 0]), names)[1] == ["e", "a", "c"]


class TestRatingMatrixConstructor:
    def test_rejects_out_of_range_and_repeats(self):
        with pytest.raises(ValueError, match="outside"):
            RatingMatrix.from_ids((1, 5), ["a"], ["x"], [6.0])
        with pytest.raises(ValueError, match="duplicate rating for user 'a', item 'x'"):
            RatingMatrix.from_ids((1, 5), ["a", "b", "a"], ["x", "x", "x"], [1.0, 2.0, 3.0])

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError, match="equal length"):
            RatingMatrix((1, 5), ["a"], ["x"], [0, 0], [0], [3.0])
        with pytest.raises(ValueError, match="item index"):
            RatingMatrix((1, 5), ["a"], ["x"], [0], [1], [3.0])
        with pytest.raises(ValueError, match="unique"):
            RatingMatrix((1, 5), ["a", "a"], ["x"], [0], [0], [3.0])
        with pytest.raises(ValueError, match="bounds"):
            RatingMatrix((5, 1))

    def test_columns_are_read_only(self):
        m = RatingMatrix.from_ids((1, 5), ["a", "b"], ["x", "x"], [1, 2])
        u, i, r = m.arrays()
        with pytest.raises(ValueError):
            r[0] = 5.0
        assert m.users == ["a", "b"] and m.items == ["x"] and r.tolist() == [1.0, 2.0]

    def test_user_ratings_in_record_order(self):
        m = RatingMatrix.from_ids((1, 5), ["b", "a", "b", "a"], ["y", "x", "x", "z"], [1, 2, 3, 4])
        assert list(m.user_ratings(0).items()) == [(0, 1.0), (1, 3.0)]
        assert list(m.user_ratings(1).items()) == [(1, 2.0), (2, 4.0)]
        assert m.user_ratings(0) == {0: 1.0, 1: 3.0}


class TestSquareToy:
    def test_structure(self, square):
        assert square.graph.item_count == 4
        assert np.allclose(square.graph.degree, 2.0)
        assert square.observed == {"A": 5.0, "C": 3.0}
        assert square.bounds == (1.0, 9.0)

    def test_connected(self, square):
        assert len(set(square.graph.component_labels())) == 1


class TestLadderToy:
    def test_observed_count(self, ladder):
        assert len(ladder.observed) == 8
        assert ladder.observed == {"v6": 4, "v9": 4, "v11": 5, "v12": 5,
                                   "v15": 6, "v16": 6, "v18": 7, "v21": 7}

    def test_connected(self, ladder):
        assert len(set(ladder.graph.component_labels())) == 1

    def test_ground_truth_second_derivative(self, ladder):
        g = ladder.graph
        truth = np.array([ladder.ground_truth[name] for name in g.items])
        second = second_derivative(g, truth)
        v1, v26 = g.item_index["v1"], g.item_index["v26"]
        assert second[v1] == pytest.approx(1.0, abs=1e-12)
        assert second[v26] == pytest.approx(-1.0, abs=1e-12)
        interior = [k for k in range(26) if k not in (v1, v26)]
        assert np.max(np.abs(second[interior])) < 1e-9
        # exactly two sources
        assert set(sources(second)) == {v1, v26}


def _two_pass_intern(ids, index):
    """The interning ``_intern`` replaced: add the new ids in first-occurrence order, then look each one up."""
    for name in dict.fromkeys(ids):
        index.setdefault(name, len(index))
    return [index[name] for name in ids]


_ID_CHUNKS = st.lists(st.lists(st.sampled_from(["a", "b", "c", "07", "7", "x:y", "é"]), max_size=12), max_size=6)


class TestInterning:
    """One-pass interning numbers ids exactly as the two-pass code did."""

    @given(chunks=_ID_CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_intern_matches_two_pass_across_chunks(self, chunks):
        index, want_index = data_module._Ids(), {}
        for ids in chunks:
            got = data_module._intern(ids, index)
            assert got.dtype == np.int64
            assert got.tolist() == _two_pass_intern(ids, want_index)
        assert list(index.items()) == list(want_index.items())

    @given(chunks=_ID_CHUNKS, items=st.lists(st.integers(0, 4).map(str), max_size=72))
    @settings(max_examples=200, deadline=None)
    def test_from_ids_matches_two_pass(self, chunks, items):
        pairs = list(dict.fromkeys(zip([u for ids in chunks for u in ids], items)))
        users = [u for u, _ in pairs]
        names = [i for _, i in pairs]
        m = RatingMatrix.from_ids((1, 5), users, names, [3.0] * len(pairs))
        want_users, want_items = {}, {}
        u_col, i_col = _two_pass_intern(users, want_users), _two_pass_intern(names, want_items)
        assert (m.users, m.items) == (list(want_users), list(want_items))
        assert [c.tolist() for c in m.arrays()[:2]] == [u_col, i_col]

    @given(chunks=_ID_CHUNKS, chunk=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_parse_numbers_ids_recurring_across_chunks(self, chunks, chunk):
        users = [u for ids in chunks for u in ids]
        # every record names a fresh item, so a user id recurs across parse chunks without repeating a pair
        lines = [f"{user},i{k % 3}-{k},4\n" for k, user in enumerate(users)]
        with mock.patch.object(data_module, "_CHUNK", chunk):
            m = parse_ratings(io.StringIO("user,item,rating\n" + "".join(lines)), "csv", (1, 5))
        want_users, want_items = {}, {}
        u_col = _two_pass_intern(users, want_users)
        i_col = _two_pass_intern([line.split(",")[1] for line in lines], want_items)
        assert (m.users, m.items) == (list(want_users), list(want_items))
        assert [c.tolist() for c in m.arrays()[:2]] == [u_col, i_col]


class TestRatingRecord:
    def test_named_tuple_with_same_fields_and_default(self):
        rec = RatingRecord("u", "x", 4.5)
        assert isinstance(rec, tuple) and RatingRecord._fields == ("user_id", "item_id", "rating")
        assert (rec.user_id, rec.item_id, rec.rating) == rec == ("u", "x", 4.5)

    def test_immutable(self):
        rec = RatingRecord("u", "x", 4.5)
        with pytest.raises(AttributeError):
            rec.rating = 1.0

    def test_records_are_rating_records(self):
        m = RatingMatrix.from_ids((1, 5), ["b", "a", "b"], ["y", "x", "x"], [1, 2, 3.5])
        got = list(m.records())
        assert all(type(rec) is RatingRecord for rec in got)
        assert got == [RatingRecord("b", "y", 1.0), RatingRecord("a", "x", 2.0), RatingRecord("b", "x", 3.5)]
