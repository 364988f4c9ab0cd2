"""CLI smoke tests."""

import re

import pytest

from repro.cli import main
from repro.firmware import dispatcher, fuzz_packet_parser
from repro.peripherals import gpio


def _solver_fields(out):
    """The fields of the one ``[solver]`` line in *out*, checked."""
    lines = [line for line in out.splitlines()
             if line.startswith("[solver]")]
    assert len(lines) == 1
    fields = dict(part.split("=") for part in lines[0].split()[1:])
    assert list(fields) == ["queries", "query_cache_hits",
                            "model_cache_hits", "sat_decisions",
                            "sat_conflicts", "sat_propagations",
                            "solver_s", "replay_s"]
    assert int(fields["queries"]) > 0
    assert float(fields["solver_s"]) >= 0
    assert float(fields["replay_s"]) >= 0
    return fields


def _assert_one_resilience_line(out):
    lines = [line for line in out.splitlines()
             if line.startswith("[resilience]")]
    assert len(lines) == 1, lines
    assert "worker_respawns=1" in lines[0].split()


@pytest.fixture
def firmware_file(tmp_path):
    path = tmp_path / "fw.s"
    path.write_text(dispatcher(3, work_cycles=6))
    return str(path)


class TestCli:
    def test_corpus_listing(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "aes128" in out and "wishbone" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "HardSnap" in capsys.readouterr().out

    def test_disasm(self, firmware_file, capsys):
        assert main(["disasm", firmware_file]) == 0
        assert "lui" in capsys.readouterr().out

    def test_run_session(self, firmware_file, capsys):
        code = main(["run", firmware_file,
                     "--peripheral", "timer@0x40000000",
                     "--max-instructions", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paths=3" in out

    def test_run_prints_solver_line(self, firmware_file, capsys):
        assert main(["run", firmware_file,
                     "--peripheral", "timer@0x40000000",
                     "--max-instructions", "100000"]) == 0
        fields = _solver_fields(capsys.readouterr().out)
        assert int(fields["model_cache_hits"]) > 0

    def test_parallel_run_prints_solver_line(self, firmware_file, capsys):
        """The workers' solver counters merge into the pool epilogue,
        which ends with the serial run's [solver] line."""
        assert main(["run", firmware_file,
                     "--peripheral", "timer@0x40000000",
                     "--max-instructions", "100000",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("[solver]")
        _solver_fields(out)

    def test_parallel_run_prints_one_resilience_line(self, firmware_file,
                                                     capsys):
        """Under a fault plan the pool's respawn is counted once, in the
        report's merged record, not again in the pool epilogue."""
        assert main(["run", firmware_file,
                     "--peripheral", "timer@0x40000000",
                     "--max-instructions", "100000", "--workers", "2",
                     "--fault-plan", "seed=7,kill=1@0"]) == 0
        _assert_one_resilience_line(capsys.readouterr().out)

    def test_parallel_fuzz_prints_one_resilience_line(self, tmp_path,
                                                      capsys):
        path = tmp_path / "fuzz.s"
        path.write_text(fuzz_packet_parser())
        main(["fuzz", str(path), "--peripheral", "timer@0x40000000",
              "-n", "64", "--workers", "2", "--seed", "010441424344",
              "--fault-plan", "seed=7,kill=1@0"])
        _assert_one_resilience_line(capsys.readouterr().out)

    def test_run_reports_bugs_nonzero_exit(self, tmp_path, capsys):
        from repro.firmware import vuln_buffer_overflow
        path = tmp_path / "vuln.s"
        path.write_text(vuln_buffer_overflow())
        code = main(["run", str(path),
                     "--peripheral", "uart@0x40010000",
                     "--max-instructions", "300000",
                     "--stop-after-bugs", "1"])
        assert code == 1
        assert "BUG" in capsys.readouterr().out

    def test_instrument_writes_verilog(self, tmp_path, capsys):
        design_path = tmp_path / "gpio.v"
        design_path.write_text(gpio.verilog())
        out_path = tmp_path / "gpio_scan.v"
        code = main(["instrument", str(design_path), "--top", "gpio",
                     "-o", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "scan_enable" in text and "module gpio_scan" in text

    def test_fuzz_finds_crash(self, tmp_path, capsys):
        path = tmp_path / "fuzz.s"
        path.write_text(fuzz_packet_parser())
        code = main(["fuzz", str(path),
                     "--peripheral", "timer@0x40000000",
                     "-n", "300", "--seed", "010441424344",
                     "--seed", "0207"])
        assert code == 1  # crashes found
        out = capsys.readouterr().out
        assert "crash" in out

    def test_fuzz_line_reports_host_throughput(self, tmp_path, capsys):
        """The serial [fuzz] line shows host seconds and host exec/s
        beside the modelled figures, each labelled."""
        path = tmp_path / "fuzz.s"
        path.write_text(fuzz_packet_parser())
        main(["fuzz", str(path), "--peripheral", "timer@0x40000000",
              "-n", "20", "--seed", "0207"])
        line = next(text for text in capsys.readouterr().out.splitlines()
                    if text.startswith("[fuzz]"))
        assert re.search(r" modelled=\d+\.\d{4}s \(\d+ exec/s\) "
                         r"host=\d+\.\d{3}s \(\d+ exec/s\)$", line), line
