"""Tests for layout validation and failure-tolerance analysis (Fig. 2)."""

from repro.core import (
    GroupLayout,
    RaidGroup,
    group_losses_if_node_fails,
    layout_dvdc,
    survives_single_node_failure,
    tolerable_node_failure_sets,
    validate_layout,
)

from conftest import spread_vms


class TestValidate:
    def test_valid_dvdc_layout(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        report = validate_layout(layout, cluster4)
        assert report.ok

    def test_colocated_members_flagged(self, cluster4):
        spread_vms(cluster4, 8, 1e9)  # vms 0,4 on node 0
        layout = GroupLayout([RaidGroup(0, (0, 4), 1)])
        report = validate_layout(layout, cluster4)
        assert not report.ok
        assert "exceeds tolerance" in report.errors[0]

    def test_parity_colocated_with_member_flagged(self, cluster4):
        spread_vms(cluster4, 8, 1e9)
        layout = GroupLayout([RaidGroup(0, (0, 1), 0)])  # parity with vm0
        assert not validate_layout(layout, cluster4).ok

    def test_higher_tolerance_allows_colocation(self, cluster4):
        spread_vms(cluster4, 8, 1e9)
        layout = GroupLayout([RaidGroup(0, (0, 4), 1)])
        assert validate_layout(layout, cluster4, tolerance=2).ok

    def test_homeless_member_flagged(self, cluster4):
        vms = spread_vms(cluster4, 4, 1e9)
        cluster4.node(0).evict(vms[0])
        layout = GroupLayout([RaidGroup(0, (0, 1), 3)])
        report = validate_layout(layout, cluster4)
        assert not report.ok
        assert "homeless" in report.errors[0]


class TestFailureAnalysis:
    def test_figure2_single_controller_survivable(self, cluster4):
        """Fig. 2's claim: gridding groups across nodes makes any single
        node (controller) failure survivable."""
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        assert survives_single_node_failure(layout, cluster4)

    def test_losses_per_node(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        for node in range(4):
            losses = group_losses_if_node_fails(layout, cluster4, {node})
            # node hosts 3 member VMs (3 groups) + 1 parity block
            assert len(losses) == 4
            assert all(v == 1 for v in losses.values())

    def test_bad_layout_not_survivable(self, cluster4):
        spread_vms(cluster4, 8, 1e9)
        layout = GroupLayout([RaidGroup(0, (0, 4), 1)])  # both on node 0
        assert not survives_single_node_failure(layout, cluster4)

    def test_double_failures_fatal_under_xor(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        survivable, fatal = tolerable_node_failure_sets(
            layout, cluster4, tolerance=1, max_set=2
        )
        singles = [c for c in survivable if len(c) == 1]
        doubles_fatal = [c for c in fatal if len(c) == 2]
        assert len(singles) == 4  # every single failure OK
        assert len(doubles_fatal) == 6  # every pair fatal (k = n-1)

    def test_double_failures_survivable_under_rdp_tolerance(self, cluster4):
        spread_vms(cluster4, 12, 1e9)
        layout = layout_dvdc(cluster4)
        survivable, fatal = tolerable_node_failure_sets(
            layout, cluster4, tolerance=2, max_set=2
        )
        assert [c for c in fatal if len(c) == 2] == []
