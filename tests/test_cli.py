import os

import pytest

from nandfruit import count_elementary_ops, parse_english
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

    def test_verify_cap_too_large_for_memory(self, tmp_path, capsys):
        argv = base_args(tmp_path / "big", **{"--max-verify-qubits": "40"})
        assert run(argv) != 0
        out = output_fields(capsys)
        assert "--max-verify-qubits 40" in out["Message"]
        assert "GiB" in out["Message"]
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
