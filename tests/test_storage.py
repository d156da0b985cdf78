"""Tests for the disk model and the NAS object store."""

import pytest

from repro.storage import NAS, Disk, DiskSpec, StorageError


class TestDiskSpec:
    def test_service_time(self):
        spec = DiskSpec(bandwidth=100.0, seek_time=0.5)
        assert spec.service_time(200.0) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            DiskSpec(seek_time=-1.0)
        with pytest.raises(ValueError):
            DiskSpec(channels=0)
        with pytest.raises(ValueError):
            DiskSpec().service_time(-5.0)


class TestDisk:
    def test_single_write_time(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100.0, seek_time=0.5))

        def proc():
            yield from disk.write(200.0)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(2.5)
        assert disk.bytes_written == 200.0
        assert disk.ops == 1

    def test_fifo_spindle_serializes(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100.0, seek_time=0.0))
        done = []

        def writer(n):
            yield from disk.write(100.0)
            done.append((n, sim.now))

        for i in range(3):
            sim.process(writer(i))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_channels_parallelize(self, sim):
        disk = Disk(sim, DiskSpec(bandwidth=100.0, seek_time=0.0, channels=3))
        done = []

        def writer(n):
            yield from disk.write(100.0)
            done.append(sim.now)

        for i in range(3):
            sim.process(writer(i))
        sim.run()
        assert done == [1.0, 1.0, 1.0]

    def test_read_accounting(self, sim):
        disk = Disk(sim)

        def proc():
            yield from disk.read(1000.0)

        sim.run_process(proc())
        assert disk.bytes_read == 1000.0


class TestNAS:
    def test_store_and_fetch_roundtrip(self, sim):
        nas = NAS(sim)

        def proc():
            obj = yield from nas.store("vm0/e0", 100.0, payload={"x": 1})
            assert obj.version == 0
            got = yield from nas.fetch("vm0/e0")
            return got.payload

        assert sim.run_process(proc()) == {"x": 1}

    def test_version_advances_on_overwrite(self, sim):
        nas = NAS(sim)

        def proc():
            yield from nas.store("k", 10.0)
            obj = yield from nas.store("k", 20.0)
            return obj

        obj = sim.run_process(proc())
        assert obj.version == 1
        assert nas.bytes_stored == 20.0
        assert len(nas) == 1

    def test_missing_key_raises(self, sim):
        nas = NAS(sim)
        with pytest.raises(StorageError):
            nas.lookup("ghost")

    def test_capacity_enforced(self, sim):
        nas = NAS(sim, capacity_bytes=100.0)

        def proc():
            yield from nas.store("a", 80.0)
            with pytest.raises(StorageError):
                yield from nas.store("b", 30.0)
            # overwriting a frees its old size first
            yield from nas.store("a", 95.0)
            return nas.bytes_stored

        assert sim.run_process(proc()) == 95.0

    def test_delete(self, sim):
        nas = NAS(sim)
        nas.commit("a", 10.0)
        nas.commit("b", 5.0)
        nas.delete("a")
        assert len(nas) == 1 and nas.contains("b")
        assert nas.bytes_stored == 5.0
        assert not nas.contains("a")

    def test_store_charges_disk_time(self, sim):
        nas = NAS(sim, disk_spec=DiskSpec(bandwidth=100.0, seek_time=0.0))

        def proc():
            yield from nas.store("k", 500.0)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(5.0)

    def test_concurrent_stores_serialize_on_disk(self, sim):
        nas = NAS(sim, disk_spec=DiskSpec(bandwidth=100.0, seek_time=0.0))
        times = []

        def writer(k):
            yield from nas.store(k, 100.0)
            times.append(sim.now)

        for i in range(3):
            sim.process(writer(f"k{i}"))
        sim.run()
        assert times == [1.0, 2.0, 3.0]
