"""Unit tests for Table 1 configuration presets and latency compositions."""

import pytest

from repro.core import (
    INO,
    OOO,
    PIRANHA_P1,
    PIRANHA_P8,
    PIRANHA_P8F,
    PIRANHA_P8_PESSIMISTIC,
    preset,
    table1,
)


class TestTable1Piranha:
    """The P8 column of Table 1, recomposed from module latencies."""

    def test_clock(self):
        assert PIRANHA_P8.core.clock_mhz == 500.0
        assert PIRANHA_P8.core.issue_width == 1
        assert PIRANHA_P8.core.model == "inorder"

    def test_caches(self):
        assert PIRANHA_P8.l1.size_bytes == 64 * 1024
        assert PIRANHA_P8.l1.assoc == 2
        assert PIRANHA_P8.l2.size_bytes == 1024 * 1024
        assert PIRANHA_P8.l2.assoc == 8
        assert PIRANHA_P8.l2.banks == 8
        assert not PIRANHA_P8.l2.inclusive

    def test_l2_hit_16ns(self):
        assert PIRANHA_P8.lat.l2_hit() == 16.0

    def test_l2_fwd_24ns(self):
        assert PIRANHA_P8.lat.l2_fwd() == 24.0

    def test_local_memory_80ns(self):
        assert PIRANHA_P8.lat.local_memory() == 80.0

    def test_remote_120ns(self):
        assert PIRANHA_P8.lat.remote_memory() == 120.0
        assert PIRANHA_P8.lat.remote_memory_composed() == pytest.approx(120.0)

    def test_remote_dirty_180ns(self):
        assert PIRANHA_P8.lat.remote_dirty() == 180.0
        assert PIRANHA_P8.lat.remote_dirty_composed() == pytest.approx(180.0)

    def test_rdram_latencies(self):
        assert PIRANHA_P8.lat.dram_random == 60.0
        assert PIRANHA_P8.lat.dram_page_hit == 40.0
        assert PIRANHA_P8.lat.dram_rest_of_line == 30.0


class TestTable1Ooo:
    def test_core(self):
        assert OOO.core.clock_mhz == 1000.0
        assert OOO.core.issue_width == 4
        assert OOO.core.window_size == 64
        assert OOO.core.model == "ooo"

    def test_l2(self):
        assert OOO.l2.size_bytes == 1536 * 1024
        assert OOO.l2.assoc == 6
        assert OOO.lat.l2_hit() == 12.0

    def test_local_memory(self):
        assert OOO.lat.local_memory() == 80.0


class TestTable1FullCustom:
    def test_core(self):
        assert PIRANHA_P8F.core.clock_mhz == 1250.0
        assert PIRANHA_P8F.cpus == 8

    def test_latencies(self):
        assert PIRANHA_P8F.lat.l2_hit() == 12.0
        assert PIRANHA_P8F.lat.l2_fwd() == 16.0
        assert PIRANHA_P8F.lat.local_memory() == 80.0


class TestPessimistic:
    """Section 4's sensitivity parameters: 400 MHz, 32 KB 1-way, 22/32 ns."""

    def test_parameters(self):
        c = PIRANHA_P8_PESSIMISTIC
        assert c.core.clock_mhz == 400.0
        assert c.l1.size_bytes == 32 * 1024
        assert c.l1.assoc == 1
        assert c.lat.l2_hit() == 22.0
        assert c.lat.l2_fwd() == 32.0


class TestDerivedConfigs:
    def test_with_cpus(self):
        assert PIRANHA_P1.cpus == 1
        assert PIRANHA_P1.lat == PIRANHA_P8.lat
        assert preset("P4").cpus == 4

    def test_ino_is_single_issue_ooo_twin(self):
        assert INO.core.issue_width == 1
        assert INO.core.model == "inorder"
        assert INO.lat == OOO.lat
        assert INO.l2 == OOO.l2

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("P16")


class TestTable1Rendering:
    def test_three_columns(self):
        t = table1()
        assert set(t) == {"P8", "OOO", "P8F"}

    def test_p8_row_values(self):
        row = table1()["P8"]
        assert row["Processor Speed"] == "500 MHz"
        assert row["L2 Hit / L2 Fwd Latency"] == "16 ns / 24 ns"
        assert row["Local Memory Latency"] == "80 ns"
        assert row["Remote Memory Latency"] == "120 ns"
        assert row["Remote Dirty Latency"] == "180 ns"
        assert row["L1 Cache Size"] == "64 KB"

    def test_ooo_row(self):
        row = table1()["OOO"]
        assert row["Processor Speed"] == "1 GHz"
        assert row["Issue Width"] == 4
        assert row["Instruction Window Size"] == 64
        assert row["L2 Cache Size"] == "1.5MB"

    def test_single_cpu_has_no_fwd_latency(self):
        assert "NA" in PIRANHA_P1.table1_row()["L2 Hit / L2 Fwd Latency"]


class TestGeometry:
    def test_l1_sets(self):
        assert PIRANHA_P8.l1.sets == 512

    def test_l2_sets_per_bank(self):
        assert PIRANHA_P8.l2.sets_per_bank == 256

    def test_l2_bank_count_must_be_power_of_two(self):
        from repro.core.config import L2Params

        with pytest.raises(ValueError, match="power of two"):
            L2Params(banks=6)
        with pytest.raises(ValueError, match="power of two"):
            L2Params(banks=0)
        assert L2Params(banks=1).sets_per_bank == 2048
