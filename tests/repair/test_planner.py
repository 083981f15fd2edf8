"""Repair planner: deterministic, load-balanced transfer schedules."""

import numpy as np

from repro.repair import plan_repair, scan_cluster

from tests.repair.conftest import dumped_cluster


def failed_scan(n=6, k=3, fail=(2,), **cfg):
    cluster = dumped_cluster(n, k=k, **cfg)
    for node in fail:
        cluster.fail_node(node)
    return cluster, scan_cluster(cluster, k)


class TestScheduleShape:
    def test_clean_scan_gives_empty_schedule(self):
        cluster = dumped_cluster(5, k=3)
        schedule = plan_repair(cluster, scan_cluster(cluster, 3))
        assert schedule.empty
        assert schedule.bytes_scheduled == 0

    def test_every_deficit_copy_scheduled(self):
        cluster, scan = failed_scan()
        schedule = plan_repair(cluster, scan)
        assert schedule.chunks_scheduled == scan.deficit_chunks
        assert schedule.bytes_scheduled == scan.deficit_bytes

    def test_slot_payload_is_largest_chunk(self):
        cluster, scan = failed_scan()
        schedule = plan_repair(cluster, scan)
        assert schedule.slot_payload == max(t.size for t in schedule.transfers)
        assert schedule.digest_size == len(schedule.transfers[0].fp)

    def test_plan_is_deterministic(self):
        cluster, scan = failed_scan()
        first = plan_repair(cluster, scan)
        second = plan_repair(cluster, scan)
        assert first.transfers == second.transfers
        assert first.manifest_transfers == second.manifest_transfers


class TestPlacement:
    def test_destinations_avoid_existing_replicas(self):
        cluster, scan = failed_scan()
        schedule = plan_repair(cluster, scan)
        for t in schedule.transfers:
            assert t.dest not in scan.chunks[t.fp].holders

    def test_no_two_copies_share_a_destination(self):
        cluster, scan = failed_scan()
        by_fp = {}
        for t in plan_repair(cluster, scan).transfers:
            by_fp.setdefault(t.fp, []).append(t.dest)
        for dests in by_fp.values():
            assert len(dests) == len(set(dests))

    def test_only_live_nodes_participate(self):
        cluster, scan = failed_scan(fail=(1, 4))
        live = {n.node_id for n in cluster.alive_nodes}
        schedule = plan_repair(cluster, scan)
        for t in schedule.transfers:
            assert t.source in live and t.dest in live
        for mt in schedule.manifest_transfers:
            assert mt.source in live and mt.dest in live

    def test_sources_hold_what_they_serve(self):
        cluster, scan = failed_scan()
        for t in plan_repair(cluster, scan).transfers:
            if not t.reconstruct:
                assert t.source in scan.chunks[t.fp].holders

    def test_read_load_spread_over_holders(self):
        # With every chunk at K-1 holders after one failure, a naive
        # "first holder serves" plan would put the whole read load on the
        # lowest node id; the planner must use more than one source.
        cluster, scan = failed_scan()
        sources = {t.source for t in plan_repair(cluster, scan).transfers}
        assert len(sources) > 1


class TestWindowOffsets:
    def test_regions_preserve_schedule_order(self):
        cluster, scan = failed_scan()
        schedule = plan_repair(cluster, scan)
        regions = 0
        for source, dest in zip(*np.nonzero(schedule.counts)):
            rows = schedule.region_rows(source, dest)
            regions += 1
            assert rows.tolist() == sorted(rows.tolist())
            assert (schedule.source[rows] == source).all()
            assert (schedule.dest[rows] == dest).all()
            first = schedule.starts[source, dest]
            assert schedule.slots[rows].tolist() == list(
                range(first, first + len(rows))
            )
        assert regions > 1

    def test_slots_are_dense_per_destination(self):
        cluster, scan = failed_scan()
        schedule = plan_repair(cluster, scan)
        for dest, n_slots in enumerate(schedule.window_slots):
            landed = schedule.slots[schedule.dest == dest]
            assert sorted(landed.tolist()) == list(range(n_slots))
