import math
import random

import pytest

from nandfruit import (
    CompileReport,
    FruitSpec,
    Gate,
    Loop,
    SeoProgram,
    SeoSyntaxError,
    count_elementary_ops,
    expand,
    parse_english,
    write_english,
    write_log,
    write_picture,
)


def g(kind="SIGX", target=0, angle=None, controls=()):
    return Gate(kind, target, angle, tuple(controls))


class TestCounting:
    def test_loop_weighted(self):
        prog = SeoProgram(2, [
            g(), g(target=1),
            Loop(0, 5, [g(), g(target=1), g()]),
        ])
        assert count_elementary_ops(prog) == 17

    def test_empty(self):
        assert count_elementary_ops(SeoProgram(1)) == 0

    def test_nested(self):
        prog = SeoProgram(2, [Loop(0, 3, [Loop(1, 4, [g(), g(target=1)])])])
        assert count_elementary_ops(prog) == 24

    def test_shared_body_weighted_per_loop(self):
        body = [g(), g(target=1)]
        prog = SeoProgram(2, [Loop(0, 2, body), g(), Loop(1, 3, body)])
        assert count_elementary_ops(prog) == 11 == len(expand(prog))

    def test_count_equals_expansion_length(self):
        rng = random.Random(7)
        for _ in range(20):
            prog = random_program(rng)
            assert count_elementary_ops(prog) == len(expand(prog))


class TestExpand:
    def test_simple_loop(self):
        g1, g2 = g(), g(target=1)
        prog = SeoProgram(2, [Loop(0, 2, [g1, g2])])
        assert expand(prog) == [g1, g2, g1, g2]

    def test_no_loops_identity(self):
        body = [g(), g(target=1)]
        assert expand(SeoProgram(2, list(body))) == body


class TestGateInvariants:
    def test_sigx_rejects_angle(self):
        with pytest.raises(ValueError):
            Gate("SIGX", 0, 0.5)

    def test_rot_requires_angle(self):
        with pytest.raises(ValueError):
            Gate("ROTY", 0)

    def test_target_control_clash(self):
        with pytest.raises(ValueError):
            Gate("SIGX", 0, None, ((0, True),))

    def test_program_rejects_out_of_range_qubit(self):
        prog = SeoProgram(2, [g(target=5)])
        with pytest.raises(ValueError):
            prog.validate()

    def test_program_rejects_duplicate_loop_id(self):
        prog = SeoProgram(1, [Loop(3, 2, [g()]), Loop(3, 2, [g()])])
        with pytest.raises(ValueError):
            prog.validate()

    def test_shared_body_with_a_loop_repeats_its_id(self):
        inner = [Loop(5, 2, [g()])]
        prog = SeoProgram(1, [Loop(0, 1, inner), Loop(1, 1, inner)])
        with pytest.raises(ValueError, match="duplicate loop id 5"):
            prog.validate()

    def test_shared_out_of_range_gate_rejected(self):
        bad = g(target=1)
        prog = SeoProgram(1, [Loop(0, 2, [bad]), Loop(1, 2, [bad])])
        with pytest.raises(ValueError, match="qubit 1"):
            prog.validate()


def random_program(rng, max_qubits=5, max_depth=3):
    n = rng.randint(1, max_qubits)
    loop_ids = iter(range(1000))

    def make_gate():
        kind = rng.choice(["SIGX", "ROTX", "ROTY", "ROTZ", "PHAS"])
        target = rng.randrange(n)
        angle = None if kind == "SIGX" else rng.uniform(-math.pi, math.pi)
        others = [q for q in range(n) if q != target]
        rng.shuffle(others)
        controls = tuple((q, rng.random() < 0.5) for q in others[: rng.randint(0, 2)])
        if kind == "PHAS" and rng.random() < 0.3:
            target = None
        return Gate(kind, target, angle, controls)

    def make_body(depth):
        body = []
        for _ in range(rng.randint(0, 5)):
            if depth < max_depth and rng.random() < 0.3:
                body.append(Loop(next(loop_ids), rng.randint(1, 4), make_body(depth + 1)))
            else:
                body.append(make_gate())
        return body

    prog = SeoProgram(n, make_body(0))
    prog.validate()
    return prog


class TestFiles:
    def test_english_gate_line(self, tmp_path):
        prog = SeoProgram(3, [g(controls=((2, True),))])
        path = tmp_path / "a_eng.txt"
        write_english(prog, path)
        lines = path.read_text().splitlines()
        assert lines == ["NUM_QUBITS 3", "SIGX AT 0 IF 2T"]

    def test_picture_gate_line(self, tmp_path):
        prog = SeoProgram(3, [g(controls=((2, True),))])
        path = tmp_path / "a_pic.txt"
        write_picture(prog, path)
        assert path.read_text().splitlines()[1] == "@---X"

    def test_picture_false_control_and_fill(self, tmp_path):
        prog = SeoProgram(4, [g(target=1, kind="ROTY", angle=0.5,
                                controls=((3, False),))])
        path = tmp_path / "b_pic.txt"
        write_picture(prog, path)
        assert path.read_text().splitlines()[1] == "O---y |"

    def test_loop_lines(self, tmp_path):
        prog = SeoProgram(1, [Loop(7, 4, [g()])])
        path = tmp_path / "c_eng.txt"
        write_english(prog, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "LOOP 7 REPS: 4"
        assert lines[3] == "NEXT 7"

    def test_signed_zero_angles_render_apart(self, tmp_path):
        # equal as gates, since 0.0 == -0.0, but written with their signs
        plus, minus = g("ROTX", angle=0.0), g("ROTX", angle=-0.0)
        assert plus == minus
        prog = SeoProgram(1, [plus, minus, plus, minus])
        write_english(prog, tmp_path / "e.txt")
        lines = (tmp_path / "e.txt").read_text().splitlines()[1:]
        assert lines == ["ROTX 0 AT 0", "ROTX -0 AT 0"] * 2
        signs = [math.copysign(1, gate.angle) for gate in parse_english(tmp_path / "e.txt").body]
        assert signs == [1, -1, 1, -1]

    def test_angle_round_trip(self, tmp_path):
        angle = 1.5707963267948966
        prog = SeoProgram(2, [g(kind="ROTY", target=1, angle=angle)])
        path = tmp_path / "d_eng.txt"
        write_english(prog, path)
        assert "ROTY 1.5707963267948966 AT 1" in path.read_text()
        back = parse_english(path)
        assert back.body[0].angle == angle

    def test_line_counts_match(self, tmp_path):
        rng = random.Random(11)
        for i in range(10):
            prog = random_program(rng)
            eng, pic = tmp_path / f"e{i}_eng.txt", tmp_path / f"e{i}_pic.txt"
            write_english(prog, eng)
            write_picture(prog, pic)
            assert len(eng.read_text().splitlines()) == len(pic.read_text().splitlines())

    def test_log_contents(self, tmp_path):
        spec = FruitSpec("t", 3, 3, 0.5, 2, "0,1", 2, 2, 3, 4, 2)
        report = CompileReport(5, 123, 1.5e-3, "")
        path = tmp_path / "t_log.txt"
        write_log(report, spec, path)
        text = path.read_text()
        assert "num_qubits: 5" in text
        assert "num_elementary_ops: 123" in text
        assert "door: 2" in text
        assert "message: OK" in text


class TestParse:
    def test_round_trip_random(self, tmp_path):
        rng = random.Random(42)
        for i in range(50):
            prog = random_program(rng)
            path = tmp_path / f"rt{i}.txt"
            write_english(prog, path)
            back = parse_english(path)
            assert back.num_qubits == prog.num_qubits
            assert expand(back) == expand(prog)

    def test_unmatched_next(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NUM_QUBITS 2\nNEXT 3\n")
        with pytest.raises(SeoSyntaxError, match="no open LOOP"):
            parse_english(path)

    def test_unclosed_loop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NUM_QUBITS 2\nLOOP 0 REPS: 2\nSIGX AT 0\n")
        with pytest.raises(SeoSyntaxError, match="unclosed"):
            parse_english(path)

    def test_duplicate_loop_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "NUM_QUBITS 1\nLOOP 0 REPS: 2\nNEXT 0\nLOOP 0 REPS: 2\nNEXT 0\n"
        )
        with pytest.raises(SeoSyntaxError, match="duplicate loop id"):
            parse_english(path)

    def test_bad_reps(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NUM_QUBITS 1\nLOOP 0 REPS: 0\nNEXT 0\n")
        with pytest.raises(SeoSyntaxError, match="reps"):
            parse_english(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("NUM_QUBITS 4\n")
        prog = parse_english(path)
        assert prog.num_qubits == 4
        assert prog.body == []

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NUM_QUBITS 2\nSIGX AT 0\nBOGUS 1\n")
        with pytest.raises(SeoSyntaxError, match="line 3"):
            parse_english(path)
