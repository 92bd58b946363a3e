import io
import itertools
import random

import pytest

from streamcolor.errors import InfeasibleSpec, MalformedLine
from streamcolor.harness import (
    GenSpec,
    RunRequest,
    build_edges,
    execute_run,
    generate,
    run_experiment_suite,
    run_kout_experiment,
    verify,
    wilson_interval,
)
from streamcolor.stream import parse_stream


def degrees_of(edges):
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return deg


def test_regular_bipartite_is_regular():
    edges = build_edges(GenSpec("regular-bipartite", 4, 2, "edge", seed=0))
    assert len(edges) == 8
    assert set(degrees_of(edges).values()) == {2}
    assert all(a < 4 <= b for a, b in edges)


def test_regular_general_is_regular():
    for n, delta in [(10, 4), (12, 5), (64, 16)]:
        edges = build_edges(GenSpec("regular-general", n, delta, "edge", seed=3))
        deg = degrees_of(edges)
        assert set(deg.values()) == {delta}
        assert len(edges) == n * delta // 2
        assert len({(min(e), max(e)) for e in edges}) == len(edges)


def test_random_bipartite_respects_the_degree_bound():
    spec = GenSpec("random-bipartite", 30, 5, "edge", seed=9)
    deg = degrees_of(build_edges(spec))
    assert max(deg.values()) <= 5


def test_infeasible_specs_are_rejected():
    with pytest.raises(InfeasibleSpec):
        build_edges(GenSpec("regular-bipartite", 10, 0, "edge", seed=0))
    with pytest.raises(InfeasibleSpec):
        build_edges(GenSpec("regular-bipartite", 4, 5, "edge", seed=0))
    with pytest.raises(InfeasibleSpec):
        build_edges(GenSpec("regular-general", 7, 3, "edge", seed=0))  # odd-odd
    with pytest.raises(InfeasibleSpec):
        generate(GenSpec("regular-general", 16, 4, "vertex-one-sided", seed=0))
    with pytest.raises(InfeasibleSpec):
        generate(GenSpec("regular-bipartite", 16, 5, "batch", seed=0))  # k=3 not a divisor


def test_generation_is_deterministic():
    for mode in ("edge", "vertex-one-sided", "vertex-two-sided"):
        spec = GenSpec("regular-bipartite", 16, 4, mode, seed=5)
        assert generate(spec) == generate(spec)
    assert generate(GenSpec("regular-bipartite", 16, 4, "edge", seed=5)) != generate(
        GenSpec("regular-bipartite", 16, 4, "edge", seed=6)
    )


def test_generated_streams_parse_cleanly():
    for family, mode in [
        ("regular-bipartite", "edge"),
        ("regular-bipartite", "vertex-one-sided"),
        ("regular-bipartite", "vertex-two-sided"),
        ("regular-bipartite", "batch"),
        ("random-bipartite", "vertex-one-sided"),
        ("regular-general", "edge"),
        ("regular-general", "vertex-two-sided"),
        ("adversarial-frontload", "edge"),
        ("adversarial-frontload", "batch"),
    ]:
        spec = GenSpec(family, 16, 4, mode, seed=11)
        header, events = parse_stream(io.StringIO(generate(spec)))
        count = 0
        for ev in events:
            count += len(ev.neighbors) if hasattr(ev, "neighbors") else len(ev.us)
        assert count == len(build_edges(spec))


def test_frontload_orders_offline_vertices_consecutively():
    spec = GenSpec("adversarial-frontload", 8, 3, "edge", seed=2)
    text = generate(spec)
    offline_seq = [int(line.split()[2]) for line in text.splitlines()[1:]]
    assert offline_seq == sorted(offline_seq)


def test_frontload_batches_come_in_rounds():
    spec = GenSpec("adversarial-frontload", 8, 4, "batch", seed=2, batch_size=2)
    text = generate(spec)
    owners = [int(line.split()[1]) for line in text.splitlines()[1:]]
    # first every vertex's batch one, then every vertex's batch two
    assert owners == sorted(owners[: len(owners) // 2]) + sorted(owners[len(owners) // 2 :])


# --- verifier ---


def test_verify_clean_run_end_to_end():
    row = execute_run(RunRequest("one-sided", GenSpec("regular-bipartite", 32, 4, "vertex-one-sided", seed=1)))
    assert row["proper"] is True
    assert row["_report"].complete


def test_verify_flags_conflicts_with_the_pair():
    stream = "H 2 2 2 edge 0 1\ne 0 2\ne 1 2\n"
    output = "c 0 2 7\nc 1 2 7\n"
    report = verify(io.StringIO(stream), io.StringIO(output))
    assert not report.proper
    assert report.conflicts[0][2] == 7
    assert {report.conflicts[0][0], report.conflicts[0][1]} == {(0, 2), (1, 2)}


def test_verify_empty_graph_and_output():
    report = verify(io.StringIO("H 2 2 1 edge 0 1\n"), io.StringIO(""))
    assert report.proper and report.complete
    assert report.colors_used == 0


def test_verify_reports_missing_and_duplicate_edges():
    stream = "H 2 2 2 edge 0 1\ne 0 2\ne 1 3\n"
    report = verify(io.StringIO(stream), io.StringIO("c 0 2 1\nc 0 2 2\n"))
    assert not report.complete
    assert (1, 3) in report.missing
    assert (0, 2) in report.duplicates
    report = verify(io.StringIO(stream), io.StringIO("c 0 2 1\nc 1 3 1\nc 0 3 2\n"))
    assert (0, 3) in report.unknown


def test_verify_budget_check():
    stream = "H 2 2 1 edge 0 1\ne 0 2\n"
    report = verify(io.StringIO(stream), io.StringIO("c 0 2 9\n"), budget=5)
    assert report.proper and not report.budget_ok


def test_grid_row_with_a_color_over_the_budget_is_not_proper(monkeypatch):
    from streamcolor import harness

    real = harness.run_stream

    def shifted(pipeline, events, *, emit):
        # every color moved past the budget: still proper and complete
        return real(pipeline, events, emit=lambda u, v, c: emit(u, v, c + 10**6))

    monkeypatch.setattr(harness, "run_stream", shifted)
    row = execute_run(RunRequest("one-sided", GenSpec("regular-bipartite", 32, 4, "vertex-one-sided", seed=1)))
    report = row["_report"]
    assert report.proper and report.complete and not report.budget_ok
    assert row["proper"] is False


def test_verify_rejects_streams_with_repeated_edges():
    with pytest.raises(MalformedLine):
        verify(io.StringIO("H 4 0 2 edge 0 1\ne 0 1\ne 1 0\n"), io.StringIO(""))


def brute_properness(edges, colors):
    for (e1, c1), (e2, c2) in itertools.combinations(zip(edges, colors), 2):
        if c1 == c2 and set(e1) & set(e2):
            return False
    return True


def test_verify_agrees_with_brute_force_properness_on_all_small_colorings():
    # graphs with up to 8 edges, every coloring over three colors (3^8 each)
    rng = random.Random(77)
    for trial in range(4):
        n = rng.randrange(4, 8)
        pool = list(itertools.combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: min(8, len(pool))]
        stream = f"H {n} 0 {n} edge 0 1\n" + "".join(f"e {a} {b}\n" for a, b in edges)
        agree = 0
        for coloring in itertools.product(range(3), repeat=len(edges)):
            output = "".join(
                f"c {a} {b} {c}\n" for (a, b), c in zip(edges, coloring)
            )
            report = verify(io.StringIO(stream), io.StringIO(output))
            assert report.proper == brute_properness(edges, coloring)
            agree += 1
        assert agree == 3 ** len(edges)


# --- k-out experiment and intervals ---


def test_kout_hall_forced_cases_never_fail():
    assert run_kout_experiment(1, 3, 3, trials=200, seed=1).failures == 0
    assert run_kout_experiment(2, 3, 3, trials=200, seed=2).failures == 0


def test_kout_u_size_is_the_exact_ceiling():
    assert run_kout_experiment(50, "2.72", 3, trials=1, seed=0).u_size == 136
    assert run_kout_experiment(25, "2.72", 3, trials=1, seed=0).u_size == 68


@pytest.mark.parametrize(
    "c, k, trials, message",
    [("2.72", 3, 0, "--trials must be at least 1"),
     ("2.72", 0, 3, "--k must be at least 1"),
     ("abc", 3, 3, "--c 'abc' is not a positive number")],
)
def test_kout_experiment_rejects_parameters_it_cannot_sample(c, k, trials, message):
    with pytest.raises(InfeasibleSpec) as err:
        run_kout_experiment(8, c, k, trials=trials, seed=0)
    assert str(err.value) == message


def test_kout_is_deterministic_in_the_seed():
    a = run_kout_experiment(12, "1.1", 3, trials=300, seed=5)
    b = run_kout_experiment(12, "1.1", 3, trials=300, seed=5)
    assert a.failures == b.failures


def test_kout_tight_universe_does_fail_sometimes():
    # far below the matching threshold, failures must show up
    res = run_kout_experiment(30, "1.05", 3, trials=300, seed=3)
    assert res.failures > 0


def test_wilson_interval_behaves():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.02 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert 0.4 < low < 0.5 < high < 0.6
    assert wilson_interval(0, 0) == (0.0, 1.0)


# --- suite plumbing ---


def test_run_row_fields():
    row = execute_run(RunRequest("one-sided", GenSpec("regular-bipartite", 16, 4, "vertex-one-sided", seed=3)))
    assert list(row) == [
        "preset", "family", "n", "delta", "s", "seed", "proper", "colors_used", "budget",
        "peak_words", "spilled_vertices", "spilled_edges", "millis", "breach", "_stats", "_report",
    ]
    assert [row[k] for k in ("preset", "family", "n", "delta", "s", "seed", "proper")] == [
        "one-sided", "regular-bipartite", 16, 4, 0, 3, True,
    ]
    assert row["breach"] is None


def test_one_sided_preset_handles_batch_streams():
    # batch arrivals through the same colorer: colors carry the batch index
    spec = GenSpec("regular-bipartite", 32, 16, "batch", seed=6, batch_size=4)
    row = execute_run(RunRequest("one-sided", spec))
    assert row["proper"]
    from streamcolor.palette import period_for

    batches = -(-16 // 4)
    assert row["budget"] == batches * 3 * period_for(16) + 16
    assert row["colors_used"] <= row["budget"]


def test_suite_parallel_matches_serial():
    reqs = [
        RunRequest("one-sided", GenSpec("regular-bipartite", 16, 4, "vertex-one-sided", seed=s))
        for s in range(4)
    ]
    serial = run_experiment_suite(reqs, jobs=1)
    parallel = run_experiment_suite(reqs, jobs=2)
    # wall time differs between runs; compare all other fields
    for row in serial + parallel:
        del row["millis"]
    assert serial == parallel
