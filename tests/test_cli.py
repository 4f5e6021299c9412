"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "P8" in out and "oltp" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "500 MHz" in out and "16 ns / 24 ns" in out

    def test_floorplan(self, capsys):
        assert main(["floorplan"]) == 0
        out = capsys.readouterr().out
        assert "CPU core" in out and "cores + caches" in out

    def test_run_small(self, capsys):
        assert main(["run", "--config", "P1", "--workload", "dss",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "L1 misses" in out

    def test_run_with_checker(self, capsys):
        assert main(["run", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out
        assert "continuous audits" in out

    def test_run_with_check_and_trace(self, capsys):
        assert main(["run", "--config", "P2", "--nodes", "2",
                     "--workload", "migratory", "--scale", "0.2",
                     "--check", "--trace", "1024"]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out

    SAMPLED_CHECK = ["run", "--config", "P2", "--workload", "oltp",
                     "--scale", "0.1", "--sampled", "--check"]

    def test_sampled_check_prints_audit(self, capsys):
        assert main(self.SAMPLED_CHECK) == 0
        out = capsys.readouterr().out
        assert "protocol sanitizer audit: OK" in out
        assert "continuous audits" in out

    def test_sampled_check_reports_violation(self, capsys, monkeypatch):
        # an L1 line the duplicate tags do not know about: the final
        # audit must fail as a reported violation, not a traceback
        from repro.core.messages import MESI
        from repro.fastforward import SampledRun

        real_run = SampledRun.run

        def run_then_corrupt(run):
            windows = real_run(run)
            run.system.nodes[0].l1d[0].fill(0x7FFF_FFC0, MESI.EXCLUSIVE,
                                            owner=True)
            return windows

        monkeypatch.setattr(SampledRun, "run", run_then_corrupt)
        assert main(self.SAMPLED_CHECK) == 1
        out = capsys.readouterr().out
        assert "VIOLATION:" in out
        assert "audit: OK" not in out

    def test_trace_subcommand_dumps_events(self, capsys):
        assert main(["trace", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "protocol trace" in out
        assert "event totals:" in out
        # at most `--last` event lines in the dump
        assert 0 < sum(1 for l in out.splitlines()
                       if l.startswith("#")) <= 5

    def test_trace_subcommand_line_filter(self, capsys):
        assert main(["trace", "--config", "P2", "--workload", "migratory",
                     "--scale", "0.2", "--node", "0", "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "[node=0]" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--config", "P99"])


class TestFuzzCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "7", "--ops", "200",
                     "--nodes", "2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "clean:" in out
        assert "ref_reads=" in out

    def test_mutated_run_exits_one_with_trace(self, capsys):
        assert main(["fuzz", "--seed", "0", "--ops", "240", "--nodes", "2",
                     "--mutate", "stale_share/3", "--check",
                     "--trace"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION MemoryModelViolation:lost-update" in out
        assert "protocol trace tail:" in out

    def test_unknown_mutation_rejected(self, capsys):
        assert main(["fuzz", "--mutate", "nosuch"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_shrink_writes_replayable_reproducer(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.json")
        assert main(["fuzz", "--seed", "0", "--ops", "240", "--nodes", "2",
                     "--mutate", "stale_share/3", "--shrink", "150",
                     "--out", out_path]) == 1
        out = capsys.readouterr().out
        assert "minimal:" in out and "REPRODUCED" in out
        assert main(["fuzz", "--replay", out_path]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
