"""Workload generators: determinism, distributions, and the trace format."""

import hashlib
import itertools
import os
import random
import tempfile
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from pagecachesim import (
    CgroupSpec,
    Op,
    ScenarioConfig,
    TraceEvent,
    TraceFormatError,
    WorkloadSpec,
    gen_filesearch,
    gen_getscan,
    gen_ycsb,
    parse_trace,
    run,
    write_trace,
    zipf_cdf,
)
from pagecachesim import workloads
from reference_trace import reference_parse

#: chi-squared critical value, df=99, p=0.999
CHI2_99_999 = 148.230


def serialize(events):
    return [(e.seq, e.op, e.cgroup, e.file, e.offset_bytes, e.len_bytes,
             e.thread) for e in events]


class TestZipfCdf:
    def test_rank_probabilities_chi_squared(self):
        # ranks drawn from the table as the generators draw them, against
        # the weights 1/(rank+1)**theta
        keys = 100
        samples = 1_000_000
        cdf = zipf_cdf(keys, theta=0.99)
        total = cdf[-1]
        rand = random.Random(42).random
        counts = [0] * keys
        for _ in range(samples):
            counts[bisect_right(cdf, rand() * total)] += 1
        weights = [1.0 / (rank + 1) ** 0.99 for rank in range(keys)]
        chi2 = 0.0
        for rank in range(keys):
            expected = samples * weights[rank] / sum(weights)
            chi2 += (counts[rank] - expected) ** 2 / expected
        assert chi2 < CHI2_99_999

    def test_theta_zero_is_uniform(self):
        assert zipf_cdf(50, theta=0.0) == [float(n) for n in range(1, 51)]

    def test_skew_orders_ranks(self):
        cdf = zipf_cdf(1000, theta=0.99)
        assert len(cdf) == 1000
        assert cdf[0] == 1.0
        assert cdf[1] - cdf[0] > cdf[11] - cdf[10] > cdf[501] - cdf[500] > 0
        assert zipf_cdf(1000, theta=0.99) is not cdf  # a fresh list per call

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            zipf_cdf(0)
        with pytest.raises(ValueError):
            zipf_cdf(10, theta=-1)
        with pytest.raises(TypeError):
            zipf_cdf(10.0)


class TestYcsb:
    def test_variant_c_is_read_only(self):
        events = list(gen_ycsb("C", keyspace=1000, value_size=1024,
                               count=1000, seed=3))
        assert len(events) == 1000
        assert all(e.op is Op.READ for e in events)

    def test_variant_a_write_fraction(self):
        events = list(gen_ycsb("A", keyspace=1000, value_size=1024,
                               count=100_000, seed=5))
        writes = sum(e.op is Op.WRITE for e in events)
        assert abs(writes / 100_000 - 0.5) < 0.01

    def test_uniform_variants(self):
        reads = list(gen_ycsb("Uniform", keyspace=100, value_size=1024,
                              count=2000, seed=7))
        assert all(e.op is Op.READ for e in reads)
        mixed = list(gen_ycsb("UniformRW", keyspace=100, value_size=1024,
                              count=2000, seed=7))
        assert any(e.op is Op.WRITE for e in mixed)

    def test_same_seed_same_stream(self):
        a = serialize(gen_ycsb("A", keyspace=500, value_size=1024,
                               count=5000, seed=11))
        b = serialize(gen_ycsb("A", keyspace=500, value_size=1024,
                               count=5000, seed=11))
        assert a == b
        c = serialize(gen_ycsb("A", keyspace=500, value_size=1024,
                               count=5000, seed=12))
        assert a != c

    def test_key_slotting(self):
        events = list(gen_ycsb("C", keyspace=10_000, value_size=1024,
                               count=3000, seed=1, keys_per_file=4096))
        for e in events:
            assert e.len_bytes == 1024
            assert e.offset_bytes % 1024 == 0
            assert e.offset_bytes < 4096 * 1024
            assert 0 <= e.file <= 10_000 // 4096

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_ycsb("B", keyspace=10, value_size=1024, count=10, seed=0)
        with pytest.raises(ValueError):
            gen_ycsb("C", keyspace=10, value_size=1024, count=0, seed=0)

    @pytest.mark.parametrize("variant", ["Uniform", "UniformRW"])
    @pytest.mark.parametrize("keyspace, error", [(0, ValueError),
                                                 (100.5, TypeError)])
    def test_uniform_keyspace_checked_when_built(self, variant, keyspace,
                                                 error):
        with pytest.raises(error):
            gen_ycsb(variant, keyspace=keyspace, value_size=1024, count=10,
                     seed=0)

    @pytest.mark.parametrize("kind", ["uniform", "uniform-rw"])
    @pytest.mark.parametrize("keyspace", [0, 100.5])
    def test_uniform_keyspace_reported_by_validate(self, kind, keyspace):
        config = ScenarioConfig(
            cgroups=[CgroupSpec(0, 16 * 4096)],
            workload=WorkloadSpec(kind, {"keyspace": keyspace, "count": 10}))
        errors = config.validate()
        assert len(errors) == 1
        assert errors[0].startswith("workload: ")


class TestFilesearch:
    def test_enumeration_order(self):
        events = list(gen_filesearch(corpus_files=2, file_pages=2, passes=1))
        assert serialize(events) == [
            (0, Op.READ, 0, 0, 0, 4096, 0),
            (1, Op.READ, 0, 0, 4096, 4096, 0),
            (2, Op.READ, 0, 1, 0, 4096, 1 % 1),
            (3, Op.READ, 0, 1, 4096, 4096, 0),
        ]

    def test_pass_count_and_total(self):
        events = list(gen_filesearch(corpus_files=3, file_pages=4, passes=5))
        assert len(events) == 3 * 4 * 5
        assert [e.seq for e in events] == list(range(60))

    def test_threads_round_robin_by_file(self):
        events = list(gen_filesearch(corpus_files=4, file_pages=1, passes=1,
                                     threads=2))
        assert [e.thread for e in events] == [0, 1, 0, 1]


class TestGetScan:
    def test_scan_share_and_threads(self):
        events = list(gen_getscan(count=100_000, get_keyspace=4000, seed=9,
                                  scan_len_pages=64,
                                  get_threads=(0, 1), scan_threads=(8, 9)))
        scans = [e for e in events if e.op is Op.SCAN]
        gets = [e for e in events if e.op is Op.GET]
        assert len(scans) + len(gets) == 100_000
        # expectation 50; 6-sigma binomial bound is ~42
        assert abs(len(scans) - 50) < 45
        assert all(e.thread in (8, 9) for e in scans)
        assert all(e.thread in (0, 1) for e in gets)

    def test_consecutive_scans_never_overlap(self):
        events = list(gen_getscan(count=50_000, get_keyspace=4000, seed=2,
                                  scan_len_pages=32, scan_region_pages=128))
        scans = [e for e in events if e.op is Op.SCAN]
        assert len(scans) > 2
        for prev, cur in zip(scans, scans[1:]):
            prev_pages = set(prev.page_range())
            assert prev_pages.isdisjoint(cur.page_range())

    def test_scan_file_disjoint_from_get_files(self):
        events = list(gen_getscan(count=20_000, get_keyspace=100_000, seed=4))
        get_files = {e.file for e in events if e.op is Op.GET}
        scan_files = {e.file for e in events if e.op is Op.SCAN}
        assert get_files.isdisjoint(scan_files)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            gen_getscan(count=10, get_keyspace=10, get_fraction=0.9,
                        scan_fraction=0.05)
        with pytest.raises(ValueError):
            gen_getscan(count=10, get_keyspace=10, get_threads=(1,),
                        scan_threads=(1,))


class TestTraceFormat:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n"
                        "1,get,7,8192,4096,3,0\n")
        (event,) = parse_trace(path)
        assert event.op is Op.GET
        assert event.file == 7
        assert list(event.page_range()) == [2]
        assert event.thread == 3
        assert event.cgroup == 0

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n")
        assert list(parse_trace(path)) == []

    def test_bad_integer_names_line_and_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n"
                        "1,get,7,notanumber,4096,3,0\n")
        with pytest.raises(TraceFormatError, match="line 2.*offset"):
            list(parse_trace(path))

    @pytest.mark.parametrize("field, row", [
        ("file", "1,get,-7,0,4096,3,0"),
        ("offset", "1,read,7,-4096,4096,3,0"),
        ("thread", "1,get,7,0,4096,-3,0"),
        ("cgroup", "1,delete,7,0,0,3,-1"),
    ])
    def test_negative_field_names_line_and_field(self, tmp_path, field, row):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n"
                        "0,get,7,0,4096,3,0\n" + row + "\n")
        with pytest.raises(TraceFormatError,
                           match="line 3: field %s: must be >= 0" % field):
            list(parse_trace(path))

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n"
                        "1,frobnicate,7,0,4096,3,0\n")
        with pytest.raises(TraceFormatError, match="unknown op"):
            list(parse_trace(path))

    def test_bad_header_rejected_eagerly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("nope\n1,get,7,0,4096,3,0\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace(path)

    def test_missing_field_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("seq,op,file,offset,len,thread,cgroup\n"
                        "1,get,7,0,4096,3\n")
        with pytest.raises(TraceFormatError, match="expected 7 fields"):
            list(parse_trace(path))

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        events = list(gen_ycsb("A", keyspace=300, value_size=1024,
                               count=500, seed=21))
        events.append(TraceEvent(500, Op.DELETE, 0, 3, 0, 0, 0))
        assert write_trace(path, events) == 501
        back = list(parse_trace(path))
        assert serialize(back) == serialize(events)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # as spreadsheets export UTF-8 CSV
        plain = tmp_path / "plain.csv"
        write_trace(plain, gen_getscan(count=300, get_keyspace=500, seed=6,
                                       scan_len_pages=4))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        events = serialize(parse_trace(plain))
        assert len(events) == 300
        assert serialize(parse_trace(marked)) == events

    def test_multi_page_expansion(self):
        event = TraceEvent(0, Op.SCAN, 0, 1, 4096, 3 * 4096, 0)
        assert list(event.page_range()) == [1, 2, 3]
        tail = TraceEvent(0, Op.READ, 0, 1, 4095, 2, 0)
        assert list(tail.page_range()) == [0, 1]


class TestDeterminismAcrossGenerators:
    @pytest.mark.parametrize("build", [
        lambda: gen_ycsb("C", keyspace=200, value_size=1024, count=400,
                         seed=6),
        lambda: gen_filesearch(corpus_files=3, file_pages=5, passes=2),
        lambda: gen_getscan(count=400, get_keyspace=500, seed=6),
    ])
    def test_two_instances_identical(self, build):
        assert serialize(build()) == serialize(build())


def trace_lines_text(rows):
    return "seq,op,file,offset,len,thread,cgroup\n" + "".join(
        ",".join(row) + "\n" for row in rows)


def parse_outcome(path):
    """(events parsed before the first error, the error's message)."""
    events = []
    try:
        for ev in parse_trace(path):
            events.append(ev)
    except TraceFormatError as exc:
        return serialize(events), str(exc)
    return serialize(events), None


_OP_NAMES = [op.value for op in Op]
_GOOD_INT = st.integers(0, 10 ** 9).map(str)
_SPACE = st.sampled_from([" ", "\t", "  "])
#: Integer fields: well-formed (most often), negative, "+"/"_" spellings,
#: whitespace around, and text int() rejects.
_INT_TEXT = st.one_of(
    _GOOD_INT, _GOOD_INT, _GOOD_INT,
    st.integers(-10 ** 6, -1).map(str),
    st.integers(0, 10 ** 6).map(lambda n: "+%d" % n),
    st.integers(1000, 10 ** 8).map(lambda n: "{:_}".format(n)),
    st.tuples(_SPACE, _GOOD_INT, _SPACE).map("".join),
    st.sampled_from(["", "x", "1.5", "0x10", "--1", "_1", "1__0", "1_",
                     "+-1", "-0", " -3 "]),
)
#: len also takes 0 often, so the access-op rule is exercised.
_LEN_TEXT = st.one_of(_INT_TEXT, st.just("0"), st.just("-0"))
_OP_TEXT = st.one_of(
    st.sampled_from(_OP_NAMES), st.sampled_from(_OP_NAMES),
    st.sampled_from(_OP_NAMES).map(str.upper),
    st.sampled_from(_OP_NAMES).map(str.title),
    st.tuples(_SPACE, st.sampled_from(_OP_NAMES), _SPACE).map("".join),
    st.sampled_from(["", "frob", "gets", "del ete", "DELETEX"]),
)
_ROW = st.one_of(
    st.tuples(_INT_TEXT, _OP_TEXT, _INT_TEXT, _INT_TEXT, _LEN_TEXT,
              _INT_TEXT, _INT_TEXT).map(list),
    st.tuples(_GOOD_INT, st.sampled_from(_OP_NAMES), _GOOD_INT, _GOOD_INT,
              _LEN_TEXT, _GOOD_INT, _GOOD_INT).map(list),
    st.lists(_INT_TEXT, max_size=9).filter(lambda row: len(row) != 7),
)


class TestTraceParseDifferential:
    """parse_trace against the straight-line parser in reference_trace.py:
    the same events, or the same TraceFormatError message after the same
    events."""

    def check(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w", newline="") as fh:
                fh.write(trace_lines_text(rows))
            expected = reference_parse(path)
            assert parse_outcome(path) == expected
        return expected

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ROW, max_size=6))
    def test_matches_reference(self, rows):
        self.check(rows)

    @pytest.mark.parametrize("row, error", [
        # several faults in one row: the first in check order is reported
        (["x", "frob", "-1", "0", "0", "0", "0"],
         "line 2: field op: unknown op 'frob'"),
        (["x", "get", "-1", "y", "0", "0", "0"],
         "line 2: field seq: not an integer: 'x'"),
        (["1", "get", "-1", "y", "0", "0", "0"],
         "line 2: field offset: not an integer: 'y'"),
        (["1", "get", "0", "-5", "0", "-2", "-1"],
         "line 2: field offset: must be >= 0, got -5"),
        (["1", "read", "3", "0", "0", "-2", "0"],
         "line 2: field thread: must be >= 0, got -2"),
        (["1", "frob", "3"], "line 2: expected 7 fields, got 3"),
        # len 0 is an error on an access op only
        (["1", "get", "3", "0", "0", "0", "0"],
         "line 2: field len: must be >= 1 for access ops"),
        (["1", "delete", "3", "0", "0", "0", "0"], None),
        (["1", " DELETE ", "3", "0", "-0", "0", "0"], None),
        (["1", "scan", "3", "0", "-4", "0", "0"],
         "line 2: field len: must be >= 1 for access ops"),
        # cgroup, the last field the integer and sign checks reach
        (["1", "get", "3", "0", "1", "0", "c"],
         "line 2: field cgroup: not an integer: 'c'"),
        (["1", "get", "3", "0", "1", "0", "-1"],
         "line 2: field cgroup: must be >= 0, got -1"),
        # spellings int() accepts parse in the one pass, as the op's case
        # and surrounding whitespace do
        (["+1", "get", "1_000", " 4096 ", "+4_096", "0", "0"], None),
        ([" 2", "Write ", "7", "0", "1", "0", "0"], None),
    ])
    def test_pinned_rows(self, row, error):
        events, message = self.check([row])
        assert message == error
        assert len(events) == (error is None)

    def test_events_before_a_bad_row_are_yielded(self):
        events, message = self.check([
            ["0", "get", "1", "0", "1", "0", "0"], [],
            ["1", "GET", "1", "0", "1", "0", "0"],
            ["2", "get", "1", "0", "0", "0", "0"],
            ["3", "get", "1", "0", "1", "0", "0"]])
        assert [ev[0] for ev in events] == [0, 1]
        assert message == "line 5: field len: must be >= 1 for access ops"


def stream_digest(events, count=2000):
    h = hashlib.sha256()
    for e in itertools.islice(events, count):
        h.update(("%d,%s,%d,%d,%d,%d,%d\n"
                  % (e.seq, e.op.value, e.cgroup, e.file, e.offset_bytes,
                     e.len_bytes, e.thread)).encode())
    return h.hexdigest()


class TestStreamPins:
    """SHA-256 of the first 2000 events of each generator at fixed seeds.
    A change to a generator's ``rng`` calls, their order, or the key
    slotting changes these digests."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: gen_ycsb("A", keyspace=20480, value_size=1024, count=5000,
                          seed=7, cgroup=3, thread=2),
         "86eae881f88036950e6b985812c1f46e83284bd0b4eee67f90978470d93e13c8"),
        (lambda: gen_ycsb("C", keyspace=20480, value_size=1024, count=5000,
                          seed=7, cgroup=3, thread=2),
         "7b5b103fd9d222ad5b0fc00120da6bb5fa528b64b37213a8a60e1bb8f928655c"),
        (lambda: gen_ycsb("Uniform", keyspace=20480, value_size=1024,
                          count=5000, seed=7, cgroup=3, thread=2),
         "3d2361e0077a7a1ff67c431ac02b4c87e47f7d1fd7316b0fa17c9aafcb2f60bd"),
        (lambda: gen_ycsb("UniformRW", keyspace=20480, value_size=1024,
                          count=5000, seed=7, cgroup=3, thread=2),
         "14c01fec25cab3c298f73d4a541b0cf55429d301b8a16ea198dd016435e780e4"),
        (lambda: gen_ycsb("A", keyspace=999, value_size=300, count=2000,
                          seed=5, keys_per_file=100, theta=0.5),
         "e516d004364ab73b8020fd3bdaddfc03ed16ef48f88bdcb9ad6dd2a8b4bfbf27"),
        (lambda: gen_getscan(5000, get_keyspace=8192, get_fraction=0.99,
                             scan_fraction=0.01, scan_len_pages=16, seed=11,
                             cgroup=1),
         "1b928d8081470ffd703082f0078727e51d9f950514d24dea33baf11777deb347"),
        (lambda: gen_filesearch(corpus_files=5, file_pages=300, passes=3,
                                threads=2, cgroup=2),
         "3e28ceafb90faed8de904dda2a3ceb0d4cd13823492f671d168b91e1af5c848b"),
    ])
    def test_first_events_unchanged(self, build, digest):
        assert stream_digest(build()) == digest


class TestZipfianTableBuiltOnce:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        def counting_cdf(*args):
            built.append(args)
            return zipf_cdf(*args)

        monkeypatch.setattr(workloads, "zipf_cdf", counting_cdf)
        # A table left cached by an earlier test would hide a build.
        workloads._zipf_table.cache_clear()
        return built

    @pytest.mark.parametrize("workload", [
        WorkloadSpec("ycsb-c", {"keyspace": 500, "count": 300}),
        WorkloadSpec("ycsb-a", {"keyspace": 500, "count": 300}),
        WorkloadSpec("getscan", {"get_keyspace": 500, "count": 300,
                                 "scan_len_pages": 8}),
    ])
    def test_validate_builds_none_and_run_builds_one(self, built, workload):
        """One table per (keyspace, theta): validation builds none, the
        first run one, a rerun none, and a run with a new theta or a new
        keyspace one more."""
        params = dict(workload.params)
        config = ScenarioConfig(cgroups=[CgroupSpec(0, 32 * 4096)],
                                workload=WorkloadSpec(workload.kind, params),
                                seed=4)
        assert config.validate() == []
        assert built == []
        run(config)
        assert len(built) == 1
        run(config)
        assert len(built) == 1
        params["theta"] = 0.5
        run(config)
        assert built[1:] == [(500, 0.5)]
        params[next(k for k in params if k.endswith("keyspace"))] = 600
        run(config)
        assert built[2:] == [(600, 0.5)]

    def test_unread_stream_builds_none(self, built):
        gen_ycsb("C", keyspace=500, value_size=1024, count=10, seed=1)
        gen_getscan(count=10, get_keyspace=500)
        assert built == []

    @pytest.mark.parametrize("build", [
        lambda: gen_ycsb("C", keyspace=0, value_size=1024, count=10, seed=1),
        lambda: gen_ycsb("A", keyspace=10, value_size=1024, count=10, seed=1,
                         theta=-0.1),
        lambda: gen_getscan(count=10, get_keyspace=0),
        lambda: gen_getscan(count=10, get_keyspace=10, theta=-2),
    ])
    def test_bad_zipfian_parameters_raise_eagerly(self, build):
        with pytest.raises(ValueError, match="keyspace must be >= 1|"
                                             "theta must be >= 0"):
            build()


class TestParameterChecks:
    """Each generator checks its own parameters and names the one at
    fault."""

    @pytest.mark.parametrize("build, error, name", [
        (lambda: gen_ycsb("C", keyspace=10, count=10.5, seed=1),
         TypeError, "count"),
        (lambda: gen_ycsb("C", keyspace=10, count=10, seed=1,
                          keys_per_file=0), ValueError, "keys_per_file"),
        (lambda: gen_ycsb("C", keyspace=10, count=10, seed=1, value_size=0),
         ValueError, "value_size"),
        (lambda: gen_ycsb("C", keyspace=True, count=10, seed=1),
         TypeError, "keyspace"),
        (lambda: gen_ycsb("C", keyspace=10, count=10, seed=1, thread=-1),
         ValueError, "thread"),
        (lambda: gen_ycsb("Uniform", keyspace=10, count=10, seed=1,
                          theta=float("nan")), ValueError, "theta"),
        (lambda: gen_filesearch(corpus_files=2, file_pages=2, passes=2.5),
         TypeError, "passes"),
        (lambda: gen_filesearch(corpus_files=2, file_pages=2, passes=1,
                                threads=1.5), TypeError, "threads"),
        (lambda: gen_filesearch(corpus_files=0, file_pages=2, passes=1),
         ValueError, "corpus_files"),
        (lambda: gen_getscan(count=10, get_keyspace=10, get_threads=()),
         ValueError, "get_threads"),
        (lambda: gen_getscan(count=10, get_keyspace=10, scan_threads=[]),
         ValueError, "scan_threads"),
        (lambda: gen_getscan(count=10, get_keyspace=10,
                             scan_threads=("a", "b")), TypeError,
         "scan_threads"),
        (lambda: gen_getscan(count=10, get_keyspace=10, scan_region_pages=0),
         ValueError, "scan_region_pages"),
        (lambda: gen_getscan(count=10, get_keyspace=10, cgroup=1.0),
         TypeError, "cgroup"),
        (lambda: gen_ycsb("C", keyspace=10, count=10, seed=1, theta="x"),
         TypeError, "theta"),
        (lambda: gen_getscan(count=10, get_keyspace=10, theta=True),
         TypeError, "theta"),
        (lambda: gen_getscan(count=10, get_keyspace=10, get_fraction="1"),
         TypeError, "get_fraction"),
        (lambda: gen_getscan(count=10, get_keyspace=10, scan_fraction=None),
         TypeError, "scan_fraction"),
        (lambda: parse_trace(0), TypeError, "path"),
    ])
    def test_bad_parameters_raise_naming_themselves(self, build, error, name):
        with pytest.raises(error, match=name):
            build()
