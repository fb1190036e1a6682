"""Self-tests of the benchmark: its output checker, tracer arithmetic, tail
rule, seeded inputs and metric lists.

    python3 -m pytest perfbench
"""

import json
import random
import statistics
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

# the README example: 5 qubits, 5592 ops, under a second with verification
SMALL = {"line-qubits": 3, "tree-qubits": 3, "coupling": 0.2, "door": 2,
         "bands": [[0, 1], [3, 3]], "line-trots": 4, "line-order": 2,
         "tree-trots": 4, "meta-trots": 4, "meta-order": 2}


@pytest.fixture(scope="module")
def nandfruit():
    return child.import_nandfruit()


@pytest.fixture
def small_cycle(nandfruit, tmp_path):
    """One real CLI cycle of SMALL: (cycle record, its English file, facts)."""
    cli, seo = nandfruit
    eng = tmp_path / "small_qfru_eng.txt"
    argv = workloads.cli_argv(SMALL, str(tmp_path / "small"), verify=True)
    facts = {}
    cycle = child.cli_cycle(cli, argv, eng, tmp_path, facts)
    facts[cycle["hash"]] = child.file_facts(eng, SMALL, seo)
    return cycle, eng, facts


def tampered(cycle, eng, facts, seo, edit):
    """The cycle's checks after edit() rewrote one line of its English file."""
    lines = eng.read_text().splitlines()
    index = next(i for i, ln in enumerate(lines) if edit(ln) is not None)
    lines[index] = edit(lines[index])
    eng.write_text("\n".join(lines) + "\n")
    expected = facts[cycle["hash"]]["error"]
    facts = dict(facts, bad=child.file_facts(eng, SMALL, seo))
    return child.cli_failures(dict(cycle, hash="bad"), "OK", facts, expected)


def test_checker_passes_a_correct_cycle(small_cycle):
    cycle, _, facts = small_cycle
    assert cycle["printed"]["Number of Elementary Operations"] == "5592"
    fact = facts[cycle["hash"]]
    assert child.cli_failures(cycle, "OK", facts, fact["error"]) == []
    assert abs(fact["error"] - float(cycle["printed"]["Error"])) < 1e-12


def test_checker_fails_a_perturbed_angle(small_cycle, nandfruit):
    def bump(line):
        if line.startswith("ROTX"):
            kind, angle, *rest = line.split()
            return " ".join([kind, repr(float(angle) * (1 + 1e-6)), *rest])
        return None

    failures = tampered(*small_cycle, nandfruit[1], bump)
    assert any("error of the written file" in f for f in failures)
    assert not any("ops" in f for f in failures)


def test_checker_fails_a_changed_loop_count(small_cycle, nandfruit):
    def reps(line):
        if line.startswith("LOOP"):
            head, count = line.rsplit(" ", 1)
            return f"{head} {int(count) + 1}"
        return None

    failures = tampered(*small_cycle, nandfruit[1], reps)
    assert any(f.startswith("ops printed") for f in failures)


def test_checker_fails_a_wrong_message_or_exit_code(small_cycle):
    cycle, _, facts = small_cycle
    error = facts[cycle["hash"]]["error"]
    assert child.cli_failures(dict(cycle, code=1), "OK", facts, error)
    assert child.cli_failures(cycle, "verification skipped on request", facts, error)


def test_checker_of_a_skipped_error_needs_a_reference_and_a_small_error(small_cycle):
    cycle, _, facts = small_cycle
    skipped = dict(cycle, printed=dict(cycle["printed"], Error="skipped"))
    error = facts[cycle["hash"]]["error"]
    assert error > child.ERROR_CEILING  # SMALL's error is about 1e-3
    assert child.cli_failures(skipped, "OK", facts, error) == [
        f"error of the written file {error!r} above {child.ERROR_CEILING}"]
    assert child.cli_failures(skipped, "OK", facts, None)[0].startswith("no reference error")
    assert child.cli_failures(skipped, "OK", facts, error * (1 + 1e-6))[0].startswith(
        "error of the written file")


def test_replay_checker_fails_a_misparsed_program(small_cycle, nandfruit):
    _, eng, facts = small_cycle
    seo = nandfruit[1]
    fact = next(iter(facts.values()))
    program = seo.parse_english(eng)
    count = seo.count_elementary_ops(program)
    assert child.replay_failures(program, count, fact) == []
    body = program.body
    while hasattr(body[0], "reps"):
        body = body[0].body
    gate = body[0]
    body[0] = type(gate)(gate.kind, gate.target, gate.angle + 1e-9, gate.controls)
    assert child.replay_failures(program, count, fact) == [
        "parsed program differs from the file"]
    assert child.replay_failures(program, count + 1, fact)[0].startswith("counted")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 3] and [4, 9]; the second has a child [5, 6]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0],
             ["b", 4.0, 9.0, 0], ["c", 5.0, 6.0, 2]]
    assert tracer.self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_tracer_counts_and_restores(nandfruit, tmp_path):
    cli, seo = nandfruit
    original = cli.run, cli.compile_fruit, seo.SeoProgram.validate
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.compile_fruit is not original[1]
        cli.run(workloads.cli_argv(SMALL, str(tmp_path / "t"), verify=True))
    finally:
        t.uninstall()
    assert (cli.run, cli.compile_fruit, seo.SeoProgram.validate) == original
    metrics = tracer.cycle_metrics(*t.take())
    assert metrics["hamiltonian.validate_calls"] == 2
    assert metrics["verify.apply_gate_calls"] == metrics["verify.expand_gates"] == 5592
    assert metrics["verify.dim"] == 32
    assert metrics["seo.eng_lines"] == len((tmp_path / "t_qfru_eng.txt").read_text().splitlines())
    assert 0 < metrics["cli.self_s"] < metrics["compilers.compile_s"] + metrics["verify.product_s"]
    assert set(metrics) == {name for name, _, _ in tracer.PER_LAYER
                            if not name.startswith("trace.")}


@pytest.mark.parametrize("n, percentile, beyond", [
    (100, 90.0, 10), (30, 200 / 3, 10), (21, 1100 / 21, 10), (12, 700 / 12, 5), (1, 100.0, 0),
])
def test_tail_percentile_and_sample_count(n, percentile, beyond):
    samples = random.Random(n).sample(range(1000), n)
    value, p, b = run.tail([float(s) for s in samples])
    assert (p, b) == pytest.approx((percentile, beyond))
    assert sum(s > value for s in samples) == b
    assert value >= statistics.median(samples)


def test_seed_zero_is_the_recorded_spec_and_other_seeds_keep_the_counts():
    for name, workload in workloads.WORKLOADS.items():
        source = workloads.WORKLOADS[workload.get("source", name)]
        assert workloads.cli_spec(name, workloads.DEFAULT_SEED) == source["spec"]
        set_bits = sum(workloads.input_bits(source["spec"]))
        for seed in range(1, 30):
            spec = workloads.cli_spec(name, seed)
            bands = spec["bands"]
            assert sum(workloads.input_bits(spec)) == set_bits
            assert len(bands) == len(source["spec"]["bands"])
            assert all(a <= b for a, b in bands)
            assert all(a2 - b1 >= 2 for (_, b1), (a2, _) in zip(bands, bands[1:]))
            assert bands[0][0] >= 0 and bands[-1][1] < 2 ** (spec["tree-qubits"] - 1)
            assert 0 <= spec["door"] < 2 ** spec["line-qubits"]
        assert workloads.cli_spec(name, 7) == workloads.cli_spec(name, 7)


def test_benchmark_json_matches_the_code():
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    # replay-9q stays runnable by hand but is not among the benchmark's workloads
    assert [w["name"] for w in bench["workloads"]] == ["verify-7q", "compile-9q"]
    assert set(workloads.WORKLOADS) == {"verify-7q", "compile-9q", "replay-9q"}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]
    predicted = {m for row in workloads.PREDICTIONS for m in row["layer_metrics"]}
    assert predicted <= {name for name, _, _ in tracer.PER_LAYER}
