import math
import os
import time
import warnings

import pytest

from nandfruit import cli, count_elementary_ops, parse_english
from nandfruit.cli import run


def base_args(prefix, **over):
    flags = {
        "--prefix": str(prefix),
        "--line-qubits": "3",
        "--tree-qubits": "3",
        "--coupling": "0.2",
        "--door": "0",
        "--bands": "0,3",
        "--line-trots": "2",
        "--line-order": "2",
        "--tree-trots": "2",
        "--meta-trots": "2",
        "--meta-order": "2",
    }
    flags.update(over)
    argv = []
    for k, v in flags.items():
        argv += [k, v]
    return argv


def output_fields(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return dict(line.split(": ", 1) for line in lines)


class TestRun:
    def test_success_outputs_and_files(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert run(base_args(prefix)) == 0
        out = output_fields(capsys)
        assert out["Number of Qubits"] == "5"
        assert out["Message"] == "OK"
        for suffix in ("log", "eng", "pic"):
            assert (tmp_path / f"demo_qfru_{suffix}.txt").exists()
        prog = parse_english(tmp_path / "demo_qfru_eng.txt")
        assert count_elementary_ops(prog) == int(out["Number of Elementary Operations"])
        assert float(out["Error"]) >= 0

    def test_deterministic_files(self, tmp_path, capsys):
        run(base_args(tmp_path / "a"))
        run(base_args(tmp_path / "b"))
        capsys.readouterr()
        for suffix in ("eng", "pic"):
            a = (tmp_path / f"a_qfru_{suffix}.txt").read_text()
            b = (tmp_path / f"b_qfru_{suffix}.txt").read_text()
            assert a == b

    def test_odd_order_rejected(self, tmp_path, capsys):
        prefix = tmp_path / "bad"
        assert run(base_args(prefix, **{"--line-order": "3"})) != 0
        out = output_fields(capsys)
        assert "order must be even" in out["Message"]
        assert not any(tmp_path.iterdir())

    def test_mergeable_bands_rejected(self, tmp_path, capsys):
        prefix = tmp_path / "bad"
        assert run(base_args(prefix, **{"--bands": "0,2 3,3"})) != 0
        out = output_fields(capsys)
        assert "can be merged" in out["Message"]
        assert not any(tmp_path.iterdir())

    def test_door_out_of_range(self, tmp_path, capsys):
        assert run(base_args(tmp_path / "bad", **{"--door": "8"})) != 0
        assert "door" in output_fields(capsys)["Message"]

    def test_no_verify_skips_error(self, tmp_path, capsys):
        argv = base_args(tmp_path / "nv") + ["--no-verify"]
        assert run(argv) == 0
        out = output_fields(capsys)
        assert out["Error"] == "skipped"
        assert "skipped" in out["Message"]

    def test_verify_cap(self, tmp_path, capsys):
        argv = base_args(tmp_path / "cap", **{"--max-verify-qubits": "4"})
        assert run(argv) == 0
        out = output_fields(capsys)
        assert out["Error"] == "skipped"
        assert "cap" in out["Message"]

    def test_unwritable_prefix(self, tmp_path, capsys):
        argv = base_args(tmp_path / "missing" / "out")
        assert run(argv) != 0
        assert "cannot write" in output_fields(capsys)["Message"]
        assert not any(tmp_path.iterdir())

    def test_nul_in_prefix_ends_in_a_message(self, tmp_path, capsys):
        # open() refuses such a path with a ValueError, not an OSError
        assert run(base_args(f"{tmp_path}/a\0b")) == 1
        assert "embedded null byte" in output_fields(capsys)["Message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_help_returns_zero(self, flag, capsys):
        assert run([flag]) == 0
        assert "--line-qubits" in capsys.readouterr().out

    @pytest.mark.parametrize("failing", ["rename", "log writer"])
    def test_failed_write_keeps_earlier_files(self, tmp_path, capsys, monkeypatch, failing):
        # the directory stops taking renames (what an unwritable directory
        # refuses), or the third file fails after the first two are written
        prefix = tmp_path / "demo"
        assert run(base_args(prefix)) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(before) == 3

        def refuse(*args):
            raise PermissionError(13, "Permission denied")

        if failing == "rename":
            monkeypatch.setattr(cli.os, "replace", refuse)
        else:
            monkeypatch.setattr(cli, "write_log", lambda *args: refuse())
        capsys.readouterr()
        assert run(base_args(prefix, **{"--meta-trots": "3"})) == 1
        assert "Permission denied" in output_fields(capsys)["Message"]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rewrite_replaces_all_three_files(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        run(base_args(prefix))
        run(base_args(prefix, **{"--meta-trots": "3"}))
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"demo_qfru_{suffix}.txt" for suffix in ("eng", "log", "pic")]
        assert "meta_trots: 3" in (tmp_path / "demo_qfru_log.txt").read_text()
        assert "REPS: 3" in (tmp_path / "demo_qfru_eng.txt").read_text()

    @pytest.mark.parametrize("flag", ["--line-qubits", "--tree-qubits"])
    def test_oversized_register_rejected(self, tmp_path, capsys, flag):
        assert run(base_args(tmp_path / "big", **{flag: "40"})) == 1
        assert "exceeds 14" in output_fields(capsys)["Message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--line-order", "--meta-order"])
    def test_oversized_order_rejected_at_once(self, tmp_path, capsys, flag):
        start = time.perf_counter()
        assert run(base_args(tmp_path / "big", **{flag: "20"})) == 1
        assert time.perf_counter() - start < 1
        assert "English lines" in output_fields(capsys)["Message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("meta_order,text", [
        ("14", "write 18,203,126 English lines"),
        ("20", "write more than 5,470,136 English lines"),
        ("1000000000", "write more than 5,470,136 English lines"),
    ])
    def test_largest_registers_refused_by_line_count(self, tmp_path, capsys,
                                                     meta_order, text):
        # meta order 14 is refused by the count of the compiled program,
        # higher orders before compiling
        start = time.perf_counter()
        argv = ["--prefix", str(tmp_path / "big"), "--line-qubits", "14",
                "--tree-qubits", "14", "--coupling", "0.2", "--line-order", "4",
                "--meta-order", meta_order]
        assert run(argv) == 1
        assert time.perf_counter() - start < 1
        assert text in output_fields(capsys)["Message"]
        assert not any(tmp_path.iterdir())

    def test_verify_cap_too_large_for_memory(self, tmp_path, capsys):
        argv = base_args(tmp_path / "big", **{"--max-verify-qubits": "40"})
        assert run(argv) != 0
        out = output_fields(capsys)
        assert "--max-verify-qubits 40" in out["Message"]
        assert "GiB" in out["Message"]
        assert not any(tmp_path.iterdir())

    def test_negative_verify_cap_rejected(self, tmp_path, capsys):
        argv = base_args(tmp_path / "neg", **{"--max-verify-qubits": "-3"})
        assert run(argv) == 1
        out = output_fields(capsys)
        assert out["Message"] == "--max-verify-qubits must be >= 0, got -3"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("coupling,code", [("1e308", 1), (str(2.0 ** 52), 0)])
    def test_coupling_bounded_so_the_error_stays_finite(self, tmp_path, capsys,
                                                        coupling, code):
        argv = ["--prefix", str(tmp_path / "g"), "--line-qubits", "2",
                "--tree-qubits", "2", "--coupling", coupling, "--door", "1",
                "--meta-order", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == code
        out = output_fields(capsys)
        if code:
            assert "coupling constant 1e+308 exceeds" in out["Message"]
            assert not any(tmp_path.iterdir())
        else:
            assert math.isfinite(float(out["Error"]))
            assert out["Message"] == "OK"

    def test_bad_int_ends_in_a_message(self, tmp_path, capsys):
        assert run(base_args(tmp_path / "bad", **{"--line-qubits": "x"})) == 1
        out = capsys.readouterr()
        assert out.out == "Message: argument --line-qubits: invalid int value: 'x'\n"
        assert out.err.startswith("usage: nandfruit")
        assert not any(tmp_path.iterdir())

    def test_missing_required_flag_ends_in_a_message(self, tmp_path, capsys):
        argv = base_args(tmp_path / "bad")
        del argv[argv.index("--coupling"):argv.index("--coupling") + 2]
        assert run(argv) == 1
        assert output_fields(capsys)["Message"] == (
            "the following arguments are required: --coupling")
        assert not any(tmp_path.iterdir())

    def test_loop_line_in_english_file(self, tmp_path, capsys):
        run(base_args(tmp_path / "lp", **{"--meta-trots": "8"}))
        capsys.readouterr()
        text = (tmp_path / "lp_qfru_eng.txt").read_text()
        assert "REPS: 8" in text

    def test_log_records_inputs(self, tmp_path, capsys):
        run(base_args(tmp_path / "lg"))
        capsys.readouterr()
        text = (tmp_path / "lg_qfru_log.txt").read_text()
        assert "line_qubits: 3" in text
        assert "bands: 0,3" in text
        assert "error: " in text
