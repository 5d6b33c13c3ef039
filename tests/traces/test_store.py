"""Tests of the raw trace format and the trace corpus."""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.core.line import LineBatch
from repro.traces.store import (
    TraceCorpus,
    load_trace,
    read_trace_header,
    save_trace,
    trace_cache_key,
)
from repro.workloads.generator import GENERATOR_VERSION, generate_benchmark_trace
from repro.workloads.trace import WriteTrace


def _add_one(corpus_dir, name):
    """Worker for the concurrent-add test; module-level so it pickles."""
    TraceCorpus(corpus_dir).add(_trace(n=4), name=name)


def _trace(n=16, with_addresses=True, name="unit"):
    rng = np.random.default_rng(3)
    addresses = (np.arange(n, dtype=np.uint64) * 64) if with_addresses else None
    return WriteTrace(
        old=LineBatch.random(n, rng),
        new=LineBatch.random(n, rng),
        addresses=addresses,
        name=name,
        metadata={"suite": "test", "origin": "store-test"},
    )


class TestFileFormat:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = _trace()
        path = save_trace(trace, tmp_path / "t.wtrc")
        loaded = load_trace(path)
        assert loaded.old == trace.old
        assert loaded.new == trace.new
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert loaded.name == trace.name
        assert loaded.metadata == trace.metadata

    def test_roundtrip_without_addresses(self, tmp_path):
        path = save_trace(_trace(with_addresses=False), tmp_path / "t.wtrc")
        assert load_trace(path).addresses is None

    def test_mmap_load_is_memory_mapped(self, tmp_path):
        path = save_trace(_trace(), tmp_path / "t.wtrc")
        loaded = load_trace(path, mmap=True)
        assert loaded.mmap_path == path
        words = loaded.old.words
        assert isinstance(words, np.memmap) or isinstance(words.base, np.memmap)

    def test_non_mmap_load(self, tmp_path):
        path = save_trace(_trace(), tmp_path / "t.wtrc")
        loaded = load_trace(path, mmap=False)
        assert loaded.mmap_path is None
        assert loaded.old == load_trace(path, mmap=True).old

    def test_slicing_drops_mmap_path(self, tmp_path):
        path = save_trace(_trace(), tmp_path / "t.wtrc")
        assert load_trace(path)[2:5].mmap_path is None

    def test_empty_trace_roundtrip(self, tmp_path):
        empty = WriteTrace(old=LineBatch.zeros(0), new=LineBatch.zeros(0))
        loaded = load_trace(save_trace(empty, tmp_path / "empty.wtrc"))
        assert len(loaded) == 0

    def test_header_exposes_layout(self, tmp_path):
        trace = _trace(n=10)
        path = save_trace(trace, tmp_path / "t.wtrc")
        header = read_trace_header(path)
        assert header.n_lines == 10
        assert header.has_addresses
        assert header.data_offset % 64 == 0
        assert header.new_offset - header.old_offset == 10 * 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wtrc"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(TraceError, match="bad magic"):
            read_trace_header(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = save_trace(_trace(), tmp_path / "t.wtrc")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(TraceError, match="truncated"):
            read_trace_header(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.wtrc")

    def test_huge_header_length_rejected(self, tmp_path):
        """A crafted header_len must raise TraceError, not MemoryError."""
        import struct

        path = tmp_path / "evil.wtrc"
        path.write_bytes(struct.pack("<4sHHQ", b"WTRC", 1, 0, 2**62))
        with pytest.raises(TraceError, match="header length"):
            read_trace_header(path)

    def test_corrupt_header_fields_rejected(self, tmp_path):
        import json as json_module
        import struct

        for bad_header in ({"name": "x"}, {"n_lines": -5}, {"n_lines": "many"}):
            path = tmp_path / "bad.wtrc"
            body = json_module.dumps(bad_header).encode()
            path.write_bytes(
                struct.pack("<4sHHQ", b"WTRC", 1, 0, len(body)) + body + b"\0" * 64
            )
            with pytest.raises(TraceError, match="n_lines"):
                read_trace_header(path)

    def test_future_version_rejected(self, tmp_path):
        path = save_trace(_trace(), tmp_path / "t.wtrc")
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="version"):
            read_trace_header(path)


class TestWriteTraceDispatch:
    """WriteTrace.save/.load route by format (satellite: round-trip coverage)."""

    def test_wtrc_suffix_roundtrip(self, tmp_path):
        trace = _trace()
        path = trace.save(tmp_path / "t.wtrc")
        loaded = WriteTrace.load(path)
        assert loaded.mmap_path is not None
        assert loaded.old == trace.old
        assert loaded.new == trace.new
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert loaded.metadata == trace.metadata

    def test_npz_suffix_keeps_archive_format(self, tmp_path):
        trace = _trace()
        path = trace.save(tmp_path / "t.npz")
        loaded = WriteTrace.load(path)
        assert loaded.mmap_path is None
        assert loaded.old == trace.old
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert loaded.metadata == trace.metadata


class TestCorpus:
    def test_add_then_load(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        trace = _trace(name="mytrace")
        corpus.add(trace, profile="gcc", seed=7)
        assert "mytrace" in corpus
        assert corpus.names() == ["mytrace"]
        loaded = corpus.load("mytrace")
        assert loaded.new == trace.new
        entry = corpus.entries()["mytrace"]
        assert entry.profile == "gcc"
        assert entry.seed == 7
        assert entry.n_lines == len(trace)

    def test_path_escaping_names_rejected(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        for name in ("../evil", "a/b", "..", ".hidden", "a\\b"):
            with pytest.raises(TraceError, match="invalid corpus trace name"):
                corpus.add(_trace(), name=name)
        assert not (tmp_path / "evil.wtrc").exists()

    def test_unknown_name_lists_alternatives(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.add(_trace(name="alpha"))
        with pytest.raises(TraceError, match="alpha"):
            corpus.load("beta")

    def test_get_or_generate_caches_on_disk(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        first = corpus.get_or_generate("gcc", 64, seed=5)
        files = sorted((tmp_path / "corpus" / "cache").iterdir())
        second = corpus.get_or_generate("gcc", 64, seed=5)
        assert sorted((tmp_path / "corpus" / "cache").iterdir()) == files
        assert first.new == second.new
        assert first.old == second.old
        # and the cached trace equals a fresh in-memory generation
        fresh = generate_benchmark_trace("gcc", 64, 5)
        assert first.new == fresh.new

    def test_cache_key_distinguishes_inputs(self):
        base = trace_cache_key("gcc", 64, 5, GENERATOR_VERSION)
        assert trace_cache_key("gcc", 64, 6, GENERATOR_VERSION) != base
        assert trace_cache_key("gcc", 65, 5, GENERATOR_VERSION) != base
        assert trace_cache_key("lbm", 64, 5, GENERATOR_VERSION) != base
        assert trace_cache_key("gcc", 64, 5, GENERATOR_VERSION + 1) != base

    def test_concurrent_adds_keep_every_entry(self, tmp_path):
        """Index updates are serialised: parallel writers don't drop entries."""
        import multiprocessing

        corpus_dir = tmp_path / "corpus"
        names = [f"t{i}" for i in range(6)]
        with multiprocessing.Pool(3) as pool:
            pool.starmap(_add_one, [(str(corpus_dir), name) for name in names])
        assert TraceCorpus(corpus_dir).names() == sorted(names)

    def test_generated_traces_are_indexed(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "corpus")
        corpus.get_or_generate("lbm", 32, seed=9)
        entry = corpus.entries()["lbm-n32-s9"]
        assert entry.profile == "lbm"
        assert entry.seed == 9
        assert entry.n_lines == 32


class TestCorpusGC:
    """LRU byte-budget eviction of the generation cache."""

    @staticmethod
    def _fill(corpus, specs):
        import os

        for i, (profile, n) in enumerate(specs):
            corpus.get_or_generate(profile, n, seed=1)
            # Widen the mtime spacing so LRU order is unambiguous even on
            # filesystems with coarse timestamps.
            for j, path in enumerate(sorted(corpus.cache_dir().glob("*.wtrc"))):
                os.utime(path, ns=(j * 10**9, (j + 1) * 10**9))

    def test_evicts_oldest_first_until_budget(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        self._fill(corpus, [("gcc", 32), ("lbm", 32), ("mcf", 32)])
        files = sorted(
            corpus.cache_dir().glob("*.wtrc"), key=lambda p: p.stat().st_mtime_ns
        )
        sizes = [p.stat().st_size for p in files]
        budget = sizes[1] + sizes[2]  # room for exactly the two newest
        report = corpus.gc(budget_bytes=budget)
        assert report["removed"] == [files[0].name]
        assert report["kept_bytes"] <= budget
        assert not files[0].exists() and files[1].exists() and files[2].exists()

    def test_index_entries_of_evicted_traces_are_dropped(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        self._fill(corpus, [("gcc", 32), ("lbm", 32)])
        assert len(corpus.entries()) == 2
        corpus.gc(budget_bytes=0)
        assert corpus.entries() == {}
        assert list(corpus.cache_dir().glob("*.wtrc")) == []

    def test_named_traces_are_never_evicted(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        corpus.add(_trace(), name="precious")
        corpus.get_or_generate("gcc", 32, seed=1)
        corpus.gc(budget_bytes=0)
        assert "precious" in corpus.entries()
        assert (tmp_path / "c" / "precious.wtrc").exists()

    def test_dry_run_deletes_nothing(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        self._fill(corpus, [("gcc", 32)])
        report = corpus.gc(budget_bytes=0, dry_run=True)
        assert report["removed"] and report["dry_run"]
        assert len(list(corpus.cache_dir().glob("*.wtrc"))) == 1
        assert len(corpus.entries()) == 1

    def test_cache_hit_refreshes_lru_position(self, tmp_path):
        import os

        corpus = TraceCorpus(tmp_path / "c")
        corpus.get_or_generate("gcc", 32, seed=1)
        corpus.get_or_generate("lbm", 32, seed=1)
        files = sorted(corpus.cache_dir().glob("*.wtrc"))
        for j, path in enumerate(files):
            os.utime(path, ns=(j * 10**9, (j + 1) * 10**9))
        oldest = min(files, key=lambda p: p.stat().st_mtime_ns)
        before_atime = oldest.stat().st_atime_ns
        before_mtime = oldest.stat().st_mtime_ns
        # Hitting both entries advances their atime (the LRU clock) while
        # leaving mtime alone -- the mmap transport's staleness guards key
        # on mtime, so a cache hit must not look like a rewrite.
        corpus.get_or_generate("gcc", 32, seed=1)
        corpus.get_or_generate("lbm", 32, seed=1)
        assert oldest.stat().st_atime_ns > before_atime
        assert oldest.stat().st_mtime_ns == before_mtime

    def test_budget_on_constructor_collects_after_generation(self, tmp_path):
        probe = TraceCorpus(tmp_path / "probe")
        probe.get_or_generate("gcc", 32, seed=1)
        per_trace = max(p.stat().st_size for p in probe.cache_dir().glob("*.wtrc"))
        budget = 2 * per_trace + per_trace // 2  # room for about two traces
        corpus = TraceCorpus(tmp_path / "c", cache_budget_bytes=budget)
        for profile in ("gcc", "lbm", "mcf", "milc"):
            corpus.get_or_generate(profile, 32, seed=1)
        total = sum(p.stat().st_size for p in corpus.cache_dir().glob("*.wtrc"))
        assert total <= budget
        assert len(list(corpus.cache_dir().glob("*.wtrc"))) < 4

    def test_cache_hit_does_not_invalidate_mmap_descriptors(self, tmp_path):
        """A concurrent run's cache hit must not make exported descriptors
        look stale: only atime moves, and the transport guards key on mtime."""
        from repro.traces.transport import (
            MmapTraceDescriptor,
            TraceExporter,
            attach_trace,
        )

        corpus = TraceCorpus(tmp_path / "c")
        trace = corpus.get_or_generate("gcc", 32, seed=1)
        with TraceExporter() as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, MmapTraceDescriptor)
            corpus.get_or_generate("gcc", 32, seed=1)  # concurrent cache hit
            attached = attach_trace(descriptor)  # must not raise "changed"
            assert attached.new == trace.new

    def test_budget_smaller_than_one_trace_still_returns_it(self, tmp_path):
        """Generation under an impossibly small budget must not crash: the
        trace is loaded before the eviction, so the caller keeps a usable
        (unlinked-inode) mapping and only the cache file disappears."""
        corpus = TraceCorpus(tmp_path / "c", cache_budget_bytes=16)
        trace = corpus.get_or_generate("gcc", 32, seed=1)
        assert trace.new == generate_benchmark_trace("gcc", 32, 1).new
        assert list(corpus.cache_dir().glob("*.wtrc")) == []

    def test_gc_without_budget_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="byte budget"):
            TraceCorpus(tmp_path / "c").gc()

    def test_negative_budgets_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            TraceCorpus(tmp_path / "c", cache_budget_bytes=-1)
        with pytest.raises(TraceError):
            TraceCorpus(tmp_path / "c").gc(budget_bytes=-5)


class TestAddPath:
    def test_indexes_existing_file(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        corpus.root.mkdir(parents=True)
        path = save_trace(_trace(name="spooled"), corpus.root / "spooled.wtrc")
        corpus.add_path(path, profile="gcc", seed=4)
        entry = corpus.entries()["spooled"]
        assert entry.n_lines == 16
        assert entry.profile == "gcc"
        assert corpus.load("spooled").new == _trace().new

    def test_rejects_files_outside_the_corpus(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        outside = save_trace(_trace(), tmp_path / "elsewhere.wtrc")
        with pytest.raises(TraceError, match="outside corpus"):
            corpus.add_path(outside)

    def test_rejects_invalid_names(self, tmp_path):
        corpus = TraceCorpus(tmp_path / "c")
        corpus.root.mkdir(parents=True)
        path = save_trace(_trace(), corpus.root / "x.wtrc")
        with pytest.raises(TraceError, match="invalid corpus trace name"):
            corpus.add_path(path, name="a/b")
