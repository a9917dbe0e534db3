"""Tests for the delayed/array/dataframe graph builders."""

import pytest

from repro.dasklike import (
    IOOp,
    collect,
    delayed,
    imread,
    read_parquet,
)
from repro.dasklike.delayed import Delayed
from repro.dasklike.states import key_split


class TestDelayed:
    def test_chain_builds_graph(self):
        load = delayed("load", compute_time=0.1, output_nbytes=100,
                       reads=(IOOp("/img", "read", 0, 100),))
        transform = delayed("transform", compute_time=0.2,
                            output_nbytes=50, deps=(load,))
        predict = delayed("predict", compute_time=0.3, output_nbytes=10,
                          deps=(transform,))
        graph = collect([predict])
        assert len(graph) == 3
        graph.validate()

    def test_shared_dependency_deduplicated(self):
        base = delayed("base", output_nbytes=10)
        left = delayed("left", deps=(base,))
        right = delayed("right", deps=(base,))
        graph = collect([left, right])
        assert len(graph) == 3

    def test_collect_builds_one_spec_per_node(self, monkeypatch):
        """Each node's spec is built once, on its first visit, however
        many dependents reach it, and serves the order and the graph."""
        built = []
        to_spec = Delayed.to_spec

        def counted(node):
            built.append(node.key)
            return to_spec(node)
        monkeypatch.setattr(Delayed, "to_spec", counted)
        loads = [delayed("load", index=i, output_nbytes=1) for i in range(4)]
        model = delayed("model", output_nbytes=8)
        preds = [delayed("predict", index=i, deps=(load, model))
                 for i, load in enumerate(loads)]
        graph = collect([delayed("gather", deps=tuple(preds))])
        assert len(graph) == 10
        assert len(built) == 10
        assert {spec.key for spec in graph.tasks.values()} == set(built)
        # Creation order: unindexed nodes first, then by index and group.
        assert [spec.prefix for spec in graph.tasks.values()][:4] == \
            ["gather", "model", "load", "predict"]

    def test_index_produces_tuple_keys(self):
        nodes = [delayed("load", index=i, output_nbytes=1) for i in range(3)]
        keys = {n.key for n in nodes}
        assert len(keys) == 3
        assert all(isinstance(k, tuple) for k in keys)

    def test_stable_tokens(self):
        a1 = delayed("op", compute_time=1.0, output_nbytes=5)
        a2 = delayed("op", compute_time=1.0, output_nbytes=5)
        assert a1.key == a2.key

    def test_external_deps(self):
        node = delayed("use", external_deps=("old-key",))
        spec = node.to_spec()
        assert "old-key" in spec.deps


class TestImread:
    def test_one_block_per_image(self):
        arr = imread(["/a.tif", "/b.tif"], [80 * 2**20, 80 * 2**20])
        assert arr.nblocks == 2
        assert arr.nbytes == 160 * 2**20

    def test_read_ops_are_4mb(self):
        arr = imread(["/a.tif"], [80 * 2**20])
        (spec,) = arr.pending.values()
        assert len(spec.reads) == 20
        assert all(op.length == 4 * 2**20 for op in spec.reads)
        # Sequential, contiguous coverage of the file.
        offsets = [op.offset for op in spec.reads]
        assert offsets == sorted(offsets)
        assert sum(op.length for op in spec.reads) == 80 * 2**20

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            imread(["/a"], [1, 2])


class TestBlockedArrayOps:
    def make(self):
        return imread([f"/img{i}.tif" for i in range(4)],
                      [8 * 2**20] * 4)

    def test_map_blocks_chains_deps(self):
        arr = self.make()
        out = arr.map_blocks("normalize", 0.05)
        assert out.nblocks == 4
        graph = out.graph()
        assert len(graph) == 8  # 4 reads + 4 normalize
        graph.validate()

    def test_output_ratio_shrinks_blocks(self):
        out = self.make().map_blocks("grayscale", 0.01, output_ratio=1 / 3)
        assert all(b == (8 * 2**20) // 3 for b in out.block_nbytes)

    def test_map_overlap_adds_neighbor_edges(self):
        out = self.make().map_overlap("gaussian_filter", 0.02, depth=1)
        specs = [s for s in out.pending.values()
                 if s.prefix == "gaussian_filter"]
        middle = [s for s in specs if len(s.deps) == 3]
        edges = [s for s in specs if len(s.deps) == 2]
        assert len(middle) == 2 and len(edges) == 2

    def test_save_writes_in_slices(self):
        arr = self.make().map_blocks("segment", 0.01, output_ratio=0.001)
        out = arr.save("imsave", [f"/out{i}.png" for i in range(4)],
                       write_op_nbytes=2048)
        saves = [s for s in out.pending.values() if s.prefix == "imsave"]
        assert len(saves) == 4
        for s in saves:
            assert all(op.op == "write" for op in s.writes)
            assert sum(op.length for op in s.writes) == (8 * 2**20) // 1000

    def test_save_path_count_mismatch(self):
        with pytest.raises(ValueError):
            self.make().save("imsave", ["/only-one.png"])

    def test_tree_reduce_to_single_block(self):
        arr = imread([f"/i{i}" for i in range(16)], [1024] * 16)
        out = arr.tree_reduce("stats", fanin=4)
        assert out.nblocks == 1
        graph = out.graph()
        # 16 reads + 4 level-0 reducers + 1 level-1 reducer
        assert len(graph) == 21
        graph.validate()

    def test_mark_computed_clears_pending(self):
        arr = self.make()
        arr.mark_computed()
        next_stage = arr.map_blocks("normalize", 0.01)
        graph = next_stage.graph()
        assert len(graph) == 4  # only the new stage
        graph.validate(allow_external=True)
        with pytest.raises(Exception):
            graph.validate(allow_external=False)


class TestReadParquet:
    def test_partition_layout(self):
        frame = read_parquet(["/p0.parquet", "/p1.parquet"],
                             [512 * 2**20, 512 * 2**20],
                             partitions_per_file=2)
        assert frame.npartitions == 4
        specs = list(frame.pending.values())
        assert all(s.prefix == "read_parquet" for s in specs)

    def test_in_memory_inflation(self):
        frame = read_parquet(["/p.parquet"], [100 * 2**20],
                             partitions_per_file=1, in_memory_ratio=1.6)
        assert frame.block_nbytes[0] == int(100 * 2**20 * 1.6)

    def test_fusion_produces_paper_category(self):
        from repro.dasklike import fuse_linear_chains
        frame = read_parquet(["/p.parquet"], [256 * 2**20],
                             partitions_per_file=2)
        assigned = frame.assign()
        fused = fuse_linear_chains(assigned.graph())
        prefixes = {s.prefix for s in fused.tasks.values()}
        assert prefixes == {"read_parquet-fused-assign"}

    def test_getitem_and_split_categories(self):
        frame = read_parquet(["/p.parquet"], [64 * 2**20],
                             partitions_per_file=2)
        frame.mark_computed()
        projected = frame.getitem(0.5)
        train, test = projected.random_split(0.8)
        prefixes = {s.prefix for s in train.pending.values()}
        assert "getitem" in prefixes
        assert "random_split_take" in prefixes
        assert train.block_nbytes[0] > test.block_nbytes[0]

    def test_getitem_fraction_validated(self):
        frame = read_parquet(["/p"], [1024], partitions_per_file=1)
        with pytest.raises(ValueError):
            frame.getitem(0.0)
        with pytest.raises(ValueError):
            frame.random_split(1.5)

    def test_reads_cover_each_partition(self):
        frame = read_parquet(["/p"], [90 * 2**20], partitions_per_file=3,
                             read_ops_per_partition=3)
        for spec in frame.pending.values():
            assert 1 <= len(spec.reads) <= 4
        covered = sum(op.length for s in frame.pending.values()
                      for op in s.reads)
        assert covered == 90 * 2**20
