"""Tests for orthogonal RAID group construction (Figs. 1–4 layouts)."""

import pytest

from repro.core import (
    GroupLayout,
    LayoutError,
    RaidGroup,
    build_orthogonal_layout,
    layout_checkpoint_node,
    layout_dvdc,
    layout_firstshot,
)

from conftest import spread_vms


class TestGroupLayout:
    def test_duplicate_membership_rejected(self):
        with pytest.raises(LayoutError):
            GroupLayout([
                RaidGroup(0, (1, 2), 0),
                RaidGroup(1, (2, 3), 0),
            ])

    def test_group_of(self):
        layout = GroupLayout([RaidGroup(0, (1, 2), 3)])
        assert layout.group_of(1).group_id == 0
        with pytest.raises(LayoutError):
            layout.group_of(99)

    def test_parity_load(self):
        layout = GroupLayout([
            RaidGroup(0, (0,), 5),
            RaidGroup(1, (1,), 5),
            RaidGroup(2, (2,), 6),
        ])
        assert layout.parity_load() == {5: 2, 6: 1}

    def test_replace_group_updates_index(self):
        layout = GroupLayout([RaidGroup(0, (1, 2), 3)])
        layout.replace_group(0, RaidGroup(0, (1, 2), 7))
        assert layout.group_of(1).parity_node == 7
        with pytest.raises(LayoutError):
            layout.replace_group(42, RaidGroup(42, (9,), 0))

    def test_replace_group_with_new_members(self):
        layout = GroupLayout([RaidGroup(0, (1, 2), 3)])
        layout.replace_group(0, RaidGroup(0, (4, 5), 3))
        assert layout.group_of(4).group_id == 0
        with pytest.raises(LayoutError):
            layout.group_of(1)


class TestOrthogonalBuilder:
    def test_dvdc_figure4_layout(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        assert len(layout) == 4
        for g in layout.groups:
            nodes = {cluster4.vm(v).node_id for v in g.member_vm_ids}
            assert len(nodes) == 3  # members on distinct nodes
            assert g.parity_node not in nodes
        # parity rotates: one group per node (flat histogram)
        assert sorted(layout.parity_load().values()) == [1, 1, 1, 1]

    def test_all_vms_covered_exactly_once(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        assert layout.vm_ids == list(range(12))

    def test_uneven_vm_counts_leave_smaller_last_group(self, cluster4):
        # 4, 3, 2, 1 VMs per node
        for node, count in enumerate((4, 3, 2, 1)):
            for _ in range(count):
                cluster4.create_vm(node, 1e9)
        layout = build_orthogonal_layout(cluster4, group_size=3)
        sizes = sorted(len(g.member_vm_ids) for g in layout.groups)
        assert sum(sizes) == 10
        for g in layout.groups:
            nodes = [cluster4.vm(v).node_id for v in g.member_vm_ids]
            assert len(nodes) == len(set(nodes))

    def test_group_size_exceeding_nodes_rejected(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, group_size=5)

    def test_group_size_equal_nodes_has_no_parity_home(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, group_size=4, parity="rotate")

    def test_fixed_parity_node(self, cluster4):
        # VMs only on nodes 0..2; node 3 dedicated
        for node in range(3):
            cluster4.create_vm(node, 1e9)
            cluster4.create_vm(node, 1e9)
        layout = build_orthogonal_layout(cluster4, 3, parity=3)
        assert all(g.parity_node == 3 for g in layout.groups)

    def test_fixed_parity_hosting_member_rejected(self, cluster4):
        spread_vms(cluster4, 8, 1e9)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, 2, parity=0)

    def test_invalid_parity_arg(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, 2, parity="magic")
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, 2, parity=99)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, 0)

    def test_default_size_leaving_no_member_named(self, sim):
        """The defaulted size is units − shards; when no member fits, the
        error names the node or domain count and the shard count, rather
        than a bare ``group_size must be >= 1, got 0``."""
        from repro.cluster import ClusterSpec, VirtualCluster
        from repro.core import dvdc
        from repro.failures.domains import FailureDomainMap

        small = VirtualCluster(sim, ClusterSpec(n_nodes=3))
        spread_vms(small, 3, 1e9)
        with pytest.raises(LayoutError, match="3 nodes .* 3 parity shards"):
            layout_dvdc(small, n_parity=3)
        with pytest.raises(LayoutError, match="3 nodes .* 3 parity shards"):
            dvdc(small, scheme="rs-4-3")
        wide = VirtualCluster(sim, ClusterSpec(n_nodes=12))
        spread_vms(wide, 12, 1e9)
        sites = FailureDomainMap(tuple(n % 3 for n in range(12)))
        with pytest.raises(
            LayoutError, match="3 failure domains .* 3 parity shards"
        ):
            dvdc(wide, scheme="rs-4-3", domains=sites)
        assert len(layout_dvdc(wide, n_parity=2, domains=sites)) == 12

    def test_homeless_vm_rejected(self, cluster4):
        vm = cluster4.create_vm(0, 1e9)
        cluster4.node(0).evict(vm)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster4, 1, vms=[vm])


class TestFirstShot:
    def test_figure1_layout(self, cluster4):
        for node in range(3):
            cluster4.create_vm(node, 1e9)
        layout = layout_firstshot(cluster4)
        assert len(layout) == 1
        g = layout.groups[0]
        assert len(g.member_vm_ids) == 3
        assert g.parity_node == 3

    def test_requires_one_vm_per_node(self, cluster4):
        cluster4.create_vm(0, 1e9)
        cluster4.create_vm(0, 1e9)
        with pytest.raises(LayoutError):
            layout_firstshot(cluster4)

    def test_requires_free_parity_node(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        with pytest.raises(LayoutError):
            layout_firstshot(cluster4)

    def test_explicit_parity_node_must_be_empty(self, cluster4):
        for node in range(3):
            cluster4.create_vm(node, 1e9)
        with pytest.raises(LayoutError):
            layout_firstshot(cluster4, parity_node=0)


class TestCheckpointNode:
    def test_figure3_layout(self, cluster4):
        # compute nodes 0..2, checkpoint node 3
        for node in range(3):
            for _ in range(3):
                cluster4.create_vm(node, 1e9)
        layout = layout_checkpoint_node(cluster4, checkpoint_node=3)
        assert len(layout) == 3
        assert all(g.parity_node == 3 for g in layout.groups)
        for g in layout.groups:
            nodes = {cluster4.vm(v).node_id for v in g.member_vm_ids}
            assert 3 not in nodes
            assert len(nodes) == len(g.member_vm_ids)

    def test_checkpoint_node_hosting_vms_rejected(self, cluster4):
        spread_vms(cluster4, 8, 1e9)
        with pytest.raises(LayoutError):
            layout_checkpoint_node(cluster4, checkpoint_node=0)
