import math
import random
import warnings

import pytest

from nandfruit import (
    CompileReport,
    FruitSpec,
    Gate,
    Loop,
    SeoProgram,
    SeoSyntaxError,
    count_elementary_ops,
    count_english_lines,
    expand,
    parse_english,
    program_unitary,
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
            Loop(5, [g(), g(target=1), g()]),
        ])
        assert count_elementary_ops(prog) == 17

    def test_empty(self):
        assert count_elementary_ops(SeoProgram(1)) == 0

    def test_nested(self):
        prog = SeoProgram(2, [Loop(3, [Loop(4, [g(), g(target=1)])])])
        assert count_elementary_ops(prog) == 24

    def test_shared_body_weighted_per_loop(self):
        body = [g(), g(target=1)]
        prog = SeoProgram(2, [Loop(2, body), g(), Loop(3, body)])
        assert count_elementary_ops(prog) == 11 == len(expand(prog))

    def test_count_equals_expansion_length(self):
        rng = random.Random(7)
        for _ in range(20):
            prog = random_program(rng)
            assert count_elementary_ops(prog) == len(expand(prog))


class TestExpand:
    def test_simple_loop(self):
        g1, g2 = g(), g(target=1)
        prog = SeoProgram(2, [Loop(2, [g1, g2])])
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

    @pytest.mark.parametrize("kind", ["ROTX", "ROTY", "ROTZ", "PHAS"])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, kind, angle):
        with pytest.raises(ValueError, match="not finite"):
            Gate(kind, 0, angle)

    def test_target_control_clash(self):
        with pytest.raises(ValueError):
            Gate("SIGX", 0, None, ((0, True),))

    def test_program_rejects_out_of_range_qubit(self):
        prog = SeoProgram(2, [g(target=5)])
        with pytest.raises(ValueError):
            prog.validate()

    def test_program_rejects_duplicate_loop_id(self, tmp_path):
        # a Loop object standing twice is written under two ids; a file
        # that gives both places one id is refused when read
        shared = Loop(2, [g()])
        prog = SeoProgram(1, [shared, shared])
        path = tmp_path / "a_eng.txt"
        write_english(prog, path)
        text = path.read_text()
        assert parse_english(path) == prog
        path.write_text(text.replace("LOOP 1 ", "LOOP 0 ").replace("NEXT 1", "NEXT 0"))
        with pytest.raises(SeoSyntaxError, match="duplicate loop id 0"):
            parse_english(path)

    def test_program_rejects_nonpositive_reps(self):
        prog = SeoProgram(1, [Loop(2, [g()]), Loop(0, [g()])])
        with pytest.raises(ValueError, match="reps 0"):
            prog.validate()

    def test_shared_out_of_range_gate_rejected(self):
        bad = g(target=1)
        prog = SeoProgram(1, [Loop(2, [bad]), Loop(2, [bad])])
        with pytest.raises(ValueError, match="qubit 1"):
            prog.validate()

    @pytest.mark.parametrize("bad, match", [
        (g(target=1), "qubit 1"),
        (g(controls=((3, False),)), "qubit 3"),
        (Loop(0, [g()]), "reps 0"),
    ])
    def test_fault_only_in_a_shared_sub_list_rejected(self, bad, match):
        shared = [g(), [bad]]
        prog = SeoProgram(1, [Loop(2, [shared]), g(), shared, Loop(3, shared)])
        with pytest.raises(ValueError, match=match):
            prog.validate()


def random_program(rng, max_qubits=5, max_depth=3):
    n = rng.randint(1, max_qubits)

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

    # finished Loops and plain sub-lists, each with the depth of the body it
    # was first placed in; one placed again in a body no deeper shares its
    # object, as compiled programs do, and keeps the nesting within max_depth
    made = []

    def make_body(depth):
        body = []
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            again = [item for item, at in made if depth <= at]
            if again and roll < 0.15:
                body.append(rng.choice(again))
            elif depth < max_depth and roll < 0.45:
                inner = make_body(depth + 1)
                item = Loop(rng.randint(1, 4), inner) if roll < 0.35 else inner
                made.append((item, depth))
                body.append(item)
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
        prog = SeoProgram(1, [Loop(4, [g()])])
        path = tmp_path / "c_eng.txt"
        write_english(prog, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "LOOP 0 REPS: 4"
        assert lines[3] == "NEXT 0"

    def test_shared_loop_gets_an_id_per_place_in_next_order(self, tmp_path):
        # the inner loop object sits in both outer loops; ids follow the
        # NEXT lines and each LOOP line takes its NEXT line's id
        inner = Loop(2, [g()])
        prog = SeoProgram(1, [Loop(3, [inner]), inner])
        path = tmp_path / "d_eng.txt"
        write_english(prog, path)
        assert path.read_text().splitlines()[1:] == [
            "LOOP 1 REPS: 3", "LOOP 0 REPS: 2", "SIGX AT 0", "NEXT 0", "NEXT 1",
            "LOOP 2 REPS: 2", "SIGX AT 0", "NEXT 2",
        ]
        assert parse_english(path) == prog

    def test_any_unique_ids_parse_and_are_renumbered(self, tmp_path):
        path = tmp_path / "e_eng.txt"
        path.write_text("NUM_QUBITS 1\nLOOP 9 REPS: 2\nLOOP 4 REPS: 3\n"
                        "SIGX AT 0\nNEXT 4\nNEXT 9\n")
        prog = parse_english(path)
        assert prog == SeoProgram(1, [Loop(2, [Loop(3, [g()])])])
        write_english(prog, path)
        assert path.read_text() == (
            "NUM_QUBITS 1\nLOOP 1 REPS: 2\nLOOP 0 REPS: 3\nSIGX AT 0\nNEXT 0\nNEXT 1\n")

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
            lines = len(eng.read_text().splitlines())
            assert lines == len(pic.read_text().splitlines()) == count_english_lines(prog)

    def test_log_contents(self, tmp_path):
        spec = FruitSpec("t", 3, 3, 0.5, 2, "0,1", 2, 2, 3, 4, 2)
        report = CompileReport(5, 123, 1.5e-3, "")
        path = tmp_path / "t_log.txt"
        write_log(report, spec, path)
        text = path.read_text()
        assert "num_qubits: 5" in text
        assert "num_elementary_ops: 123" in text
        assert "door: 2" in text
        assert "\ntree_order: 4 (fixed internally)\n" in text
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

    # each line replaces the line with the same first word in a valid 4-line
    # file; int() alone would reject '--5' and '²' without a line number, and
    # would read the Arabic-Indic '٠' and '+0' as 0
    @pytest.mark.parametrize("line, match", [
        ("NUM_QUBITS ²", "line 1: expected 'NUM_QUBITS <n>'"),
        ("LOOP ² REPS: 2", "line 2: expected 'LOOP <id> REPS: <n>'"),
        ("LOOP 0 REPS: ²", "line 2: expected 'LOOP <id> REPS: <n>'"),
        ("LOOP 0 REPS: --5", "line 2: expected 'LOOP <id> REPS: <n>'"),
        ("LOOP 0 REPS: -", "line 2: expected 'LOOP <id> REPS: <n>'"),
        ("LOOP 0 REPS: -1", "line 2: loop reps must be >= 1"),
        ("SIGX AT ٠ IF 1T", "line 3: bad target '٠'"),
        ("SIGX AT +0 IF 1T", "line 3: bad target '\\+0'"),
        ("SIGX AT 0 IF ²T", "line 3: bad control token '²T'"),
        ("SIGX AT 0 IF T", "line 3: bad control token 'T'"),
        ("NEXT ²", "line 4: expected 'NEXT <id>'"),
    ])
    def test_malformed_integer_names_its_line(self, line, match, tmp_path):
        lines = ["NUM_QUBITS 2", "LOOP 0 REPS: 2", "SIGX AT 0 IF 1T", "NEXT 0"]
        lines = [line if line.split()[0] == old.split()[0] else old for old in lines]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeoSyntaxError, match=match):
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

    @pytest.mark.parametrize("line", ["ROTX nan AT 0", "ROTY inf AT 0"])
    def test_non_finite_angle_rejected_before_any_unitary(self, line, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"NUM_QUBITS 1\nSIGX AT 0\n{line}\n")
        products = []
        # a nan angle used to reach program_unitary and warn from numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeoSyntaxError, match="line 3: .* is not finite"):
                products.append(program_unitary(parse_english(path)))
        assert products == []
