"""Workload generators: determinism, distributions, and the trace format."""

import random

import pytest

from pagecachesim import (
    Op,
    TraceEvent,
    TraceFormatError,
    ZipfianSampler,
    gen_filesearch,
    gen_getscan,
    gen_ycsb,
    parse_trace,
    write_trace,
)

#: chi-squared critical value, df=99, p=0.999
CHI2_99_999 = 148.230


def serialize(events):
    return [(e.seq, e.op, e.cgroup, e.file, e.offset_bytes, e.len_bytes,
             e.thread) for e in events]


class TestZipfianSampler:
    def test_rank_probabilities_chi_squared(self):
        keys = 100
        samples = 1_000_000
        sampler = ZipfianSampler(keys, theta=0.99)
        rng = random.Random(42)
        counts = [0] * keys
        for _ in range(samples):
            counts[sampler.sample(rng)] += 1
        chi2 = 0.0
        for rank in range(keys):
            expected = samples * sampler.probability(rank)
            chi2 += (counts[rank] - expected) ** 2 / expected
        assert chi2 < CHI2_99_999

    def test_theta_zero_is_uniform(self):
        sampler = ZipfianSampler(50, theta=0.0)
        rng = random.Random(1)
        counts = [0] * 50
        for _ in range(50_000):
            counts[sampler.sample(rng)] += 1
        top = max(counts) / 50_000
        assert abs(top - 1 / 50) < 0.01

    def test_skew_orders_ranks(self):
        sampler = ZipfianSampler(1000, theta=0.99)
        assert sampler.probability(0) > sampler.probability(10) > \
            sampler.probability(500)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0)
        with pytest.raises(ValueError):
            ZipfianSampler(10, theta=-1)


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
