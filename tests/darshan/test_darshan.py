"""Tests for POSIX counters, DXT tracing, logs, and the report layer."""

import pytest

from repro.darshan import (
    DXTModule,
    DXTSegment,
    DarshanLog,
    DarshanReport,
    DarshanRuntime,
    PosixCounters,
    read_log,
    size_bin_label,
    write_log,
)
from repro.platform import ParallelFileSystem, PFSSpec
from repro.sim import Environment, RandomStreams


class TestSizeBins:
    @pytest.mark.parametrize("length,label", [
        (0, "0_100"),
        (100, "0_100"),
        (101, "100_1K"),
        (4 * 2**20, "1M_4M"),
        (80 * 2**20, "10M_100M"),
        (2 * 2**30, "1G_PLUS"),
    ])
    def test_bins(self, length, label):
        assert size_bin_label(length) == label


class TestPosixCounters:
    def test_read_write_accumulation(self):
        c = PosixCounters("/f")
        c.record_open()
        c.record("read", 0, 1000, 1.0, 1.5)
        c.record("read", 1000, 1000, 2.0, 2.2)
        c.record("write", 0, 500, 3.0, 3.1)
        d = c.to_dict()
        assert d["POSIX_READS"] == 2
        assert d["POSIX_WRITES"] == 1
        assert d["POSIX_BYTES_READ"] == 2000
        assert d["POSIX_BYTES_WRITTEN"] == 500
        assert d["POSIX_F_READ_TIME"] == pytest.approx(0.7)
        assert d["POSIX_MAX_BYTE_READ"] == 1999
        assert d["POSIX_F_FASTEST_OP_TIME"] == pytest.approx(0.1)
        assert d["POSIX_F_SLOWEST_OP_TIME"] == pytest.approx(0.5)

    def test_histogram_labels(self):
        c = PosixCounters("/f")
        c.record("read", 0, 50, 0, 1)
        c.record("read", 0, 4 * 2**20, 0, 1)
        d = c.to_dict()
        assert d["SIZE_HISTOGRAM"]["READ_0_100"] == 1
        assert d["SIZE_HISTOGRAM"]["READ_1M_4M"] == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            PosixCounters("/f").record("seek", 0, 1, 0, 1)

    def test_roundtrip(self):
        c = PosixCounters("/f")
        c.record_open()
        c.record("write", 10, 20, 0.0, 0.5)
        back = PosixCounters.from_dict(c.to_dict())
        assert back.to_dict() == c.to_dict()


class TestDXT:
    def seg(self, i=0):
        return DXTSegment(path="/f", op="read", offset=i * 10, length=10,
                          start=float(i), end=float(i) + 0.5,
                          pthread_id=1000 + (i % 2))

    def test_records_with_pthread_id(self):
        mod = DXTModule(buffer_limit=10)
        assert mod.record(self.seg(0))
        assert mod.segments[0].pthread_id == 1000
        assert mod.segments[0].duration == 0.5

    def test_buffer_limit_truncates(self):
        mod = DXTModule(buffer_limit=3)
        results = [mod.record(self.seg(i)) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert mod.truncated
        assert mod.dropped == 2
        assert len(mod.segments) == 3

    def test_groupings(self):
        mod = DXTModule(buffer_limit=100)
        for i in range(6):
            mod.record(self.seg(i))
        assert set(mod.by_thread()) == {1000, 1001}
        assert len(mod.by_thread()[1000]) == 3
        assert set(mod.by_file()) == {"/f"}

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            DXTModule(buffer_limit=0)


def run_runtime_io(ops, dxt_buffer_limit=2048):
    """Run a sequence of (path, op, offset, length, tid) through a runtime."""
    env = Environment()
    pfs = ParallelFileSystem(env, PFSSpec(jitter_sigma=0.0),
                             RandomStreams(1))
    pfs.create_file("/lus/a", 100 * 2**20)
    pfs.create_file("/lus/b", 100 * 2**20)
    runtime = DarshanRuntime(pfs, jobid="123.sim", rank=0,
                             hostname="nid00001",
                             dxt_buffer_limit=dxt_buffer_limit)

    def driver():
        for path, op, offset, length, tid in ops:
            yield from runtime.io(path, op, offset, length, tid)

    env.run(until=env.process(driver()))
    return runtime


class TestRuntime:
    def test_counters_and_dxt_from_io(self):
        runtime = run_runtime_io([
            ("/lus/a", "read", 0, 4 * 2**20, 111),
            ("/lus/a", "read", 4 * 2**20, 4 * 2**20, 111),
            ("/lus/b", "write", 0, 2**20, 222),
        ])
        log = runtime.finalize()
        assert log.total_io_ops == 3
        assert log.total_bytes == 9 * 2**20
        assert log.total_io_time > 0
        assert {s.pthread_id for s in log.dxt_segments} == {111, 222}
        assert not log.dxt_truncated

    def test_truncation_flagged(self):
        ops = [("/lus/a", "read", 0, 1024, 1)] * 10
        runtime = run_runtime_io(ops, dxt_buffer_limit=4)
        log = runtime.finalize()
        assert log.dxt_truncated
        assert log.dxt_dropped == 6
        # POSIX counters keep counting even when DXT drops segments.
        assert log.total_io_ops == 10

    def test_finalize_idempotent(self):
        runtime = run_runtime_io([("/lus/a", "read", 0, 1024, 1)])
        assert runtime.finalize() is runtime.finalize()


class TestLogIO:
    def test_write_read_roundtrip(self, tmp_path):
        runtime = run_runtime_io([
            ("/lus/a", "read", 0, 2**20, 7),
            ("/lus/b", "write", 0, 2**10, 8),
        ])
        log = runtime.finalize()
        path = str(tmp_path / "w0.darshan.json.gz")
        write_log(log, path)
        back = read_log(path)
        assert back.jobid == log.jobid
        assert back.total_io_ops == log.total_io_ops
        assert back.dxt_segments[0].pthread_id == 7
        assert back.files() == ["/lus/a", "/lus/b"]

    def test_write_is_byte_reproducible(self, tmp_path, monkeypatch):
        # gzip stamps the wall clock into each header unless told not
        # to; two persists of one run must not differ by the clock.
        import gzip
        log = run_runtime_io([("/lus/a", "read", 0, 2**20, 7)]).finalize()

        def write_at(clock: float) -> bytes:
            monkeypatch.setattr(gzip.time, "time", lambda: clock)
            path = tmp_path / f"{clock:.0f}" / "w0.darshan.json.gz"
            write_log(log, str(path))
            assert read_log(str(path)).to_dict() == log.to_dict()
            return path.read_bytes()

        assert write_at(1.0e9) == write_at(1.7e9)


class TestReport:
    def make_report(self, tmp_path):
        for rank in range(2):
            runtime = run_runtime_io([
                ("/lus/a", "read", 0, 2**20, 100 + rank),
                ("/lus/b", "write", 0, 2**10, 100 + rank),
            ])
            log = runtime.finalize()
            log.rank = rank
            write_log(log, str(tmp_path / f"w{rank}.darshan.json.gz"))
        return DarshanReport.from_directory(str(tmp_path))

    def test_aggregation(self, tmp_path):
        report = self.make_report(tmp_path)
        assert report.total_io_ops == 4
        assert report.distinct_files() == ["/lus/a", "/lus/b"]
        summary = report.summary()
        assert summary["processes"] == 2
        assert summary["distinct_files"] == 2

    def test_per_file_summary(self, tmp_path):
        report = self.make_report(tmp_path)
        rows = report.per_file_summary()
        a_row = next(r for r in rows if r["file"] == "/lus/a")
        assert a_row["reads"] == 2
        assert a_row["processes"] == 2

    def test_dxt_rows_sorted_with_join_keys(self, tmp_path):
        report = self.make_report(tmp_path)
        rows = report.dxt_rows()
        assert len(rows) == 4
        for row in rows:
            assert {"hostname", "pthread_id", "start", "end", "op"} <= set(row)
        starts = [r["start"] for r in rows]
        assert starts == sorted(starts)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DarshanReport.from_directory(str(tmp_path / "empty"))
