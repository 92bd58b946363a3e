"""Whole-artifact acceptance suite.

Each test covers one numbered criterion and prints one summary line.
The big properness grid is computed once per session and shared.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import statistics
from collections import Counter
from itertools import chain

import pytest

from streamcolor.cli import main as cli_main
from streamcolor.harness import (
    GenSpec,
    RunRequest,
    execute_run,
    generate,
    run_experiment_suite,
    run_kout_experiment,
)
from streamcolor.matching import brute_force_match, maximum_matching, sample_distinct
from streamcolor.offline import color_bipartite_exact, color_general
from streamcolor.palette import period_for

JOBS = 2
SEEDS = 20
GRID_N = (256, 1024)
GRID_DELTA = (8, 32, 128)

BIPARTITE_FAMILIES = ("regular-bipartite", "random-bipartite", "adversarial-frontload")
ALL_FAMILIES = BIPARTITE_FAMILIES + ("regular-general",)

# one-sided arrivals exist only for bipartite inputs, so the general family
# appears in the presets that accept general graphs
GRID_PLAN = (
    ("one-sided", BIPARTITE_FAMILIES, "vertex-one-sided", 1),
    ("vertex-general", ALL_FAMILIES, "vertex-two-sided", 1),
    ("edge-sqrt", ALL_FAMILIES, "edge", 1),
    ("edge-general", ALL_FAMILIES, "edge", 2),
)


def _line(msg):
    print(f"\n[acceptance] {msg}")


@pytest.fixture(scope="session")
def grid_rows():
    requests = []
    for preset, families, mode, s in GRID_PLAN:
        for family in families:
            for n in GRID_N:
                for delta in GRID_DELTA:
                    for seed in range(SEEDS):
                        requests.append(
                            RunRequest(
                                preset,
                                GenSpec(family, n, delta, mode, seed=seed),
                                s=s,
                                force_stream=True,
                            )
                        )
    return run_experiment_suite(requests, jobs=JOBS)


@pytest.fixture(scope="session")
def sqrt_budget_rows():
    # 120 runs of the exact-batch dispatcher on bipartite inputs
    requests = [
        RunRequest(
            "edge-sqrt",
            GenSpec(family, 256, delta, "edge", seed=seed),
            force_stream=True,
        )
        for family in BIPARTITE_FAMILIES
        for delta in (64, 256)
        for seed in range(SEEDS)
    ]
    return run_experiment_suite(requests, jobs=JOBS)


@pytest.fixture(scope="session")
def general_budget_rows():
    requests = []
    for delta in (64, 256):
        s_values = sorted({1, 2, math.ceil(delta**0.25), math.ceil(delta**0.5)})
        for s in s_values:
            for seed in range(2):
                requests.append(
                    RunRequest(
                        "edge-general",
                        GenSpec("regular-bipartite", 512, delta, "edge", seed=seed),
                        s=s,
                        force_stream=True,
                    )
                )
    return run_experiment_suite(requests, jobs=JOBS)


def _shown(row):
    """A row's plain fields, for an assertion message."""
    return {k: v for k, v in row.items() if not k.startswith("_")}


def test_c01_properness_grid(grid_rows):
    bad = [
        row
        for row in grid_rows
        if not row["proper"] or not row["_report"] or not row["_report"].complete
    ]
    for row in bad[:5]:
        print("improper:", _shown(row), row["breach"])
    assert not bad, f"{len(bad)} of {len(grid_rows)} runs failed verification"
    _line(f"C1 properness: PASS ({len(grid_rows)} runs, every edge colored once, zero conflicts)")


def test_c02_one_sided_color_budget(grid_rows):
    rows = [r for r in grid_rows if r["preset"] == "one-sided"]
    assert rows
    for row in rows:
        bound = 3 * period_for(row["delta"]) + row["delta"]
        assert row["colors_used"] <= bound, _shown(row)
        assert row["budget"] <= bound, _shown(row)
    _line(f"C2 one-sided colors <= 3*ceil(2.72 d) + d: PASS ({len(rows)} runs)")


def test_c03_sqrt_color_budget(sqrt_budget_rows):
    rows = sqrt_budget_rows
    breaches = [r for r in rows if r["breach"]]
    assert len(breaches) <= 1, f"{len(breaches)} randomized-bound breaches in {len(rows)} runs"
    for row in rows:
        if row["breach"]:
            continue
        assert row["proper"], _shown(row)
        assert row["colors_used"] <= 20 * row["delta"], _shown(row)
    _line(
        f"C3 sqrt-regime colors <= 20 d: PASS ({len(rows)} runs, "
        f"{len(breaches)} degree breaches)"
    )


def test_c04_general_color_budget(general_budget_rows):
    for row in general_budget_rows:
        bound = 60 * row["delta"] ** 1.5 / row["s"]
        assert row["proper"], _shown(row)
        assert row["colors_used"] <= bound, _shown(row)
        assert row["budget"] <= bound, _shown(row)
    _line(
        f"C4 space-knob colors <= 60 d^1.5 / s: PASS ({len(general_budget_rows)} runs "
        f"over s grids at d=64, 256)"
    )


def test_c05_space_meter_bounds(grid_rows, general_budget_rows):
    one_sided = [r for r in grid_rows if r["preset"] == "one-sided"]
    for row in one_sided:
        bound = 5 * row["n"] + 2 * row["spilled_edges"] + 8 * row["delta"]
        assert row["peak_words"] <= bound, _shown(row)
    for row in general_budget_rows:
        assert row["peak_words"] <= 50 * row["n"] * row["s"], _shown(row)
    _line(
        f"C5 peak words within bounds: PASS ({len(one_sided)} one-sided runs, "
        f"{len(general_budget_rows)} buffered-dispatch runs)"
    )


def test_c06_spill_rarity():
    requests = [
        RunRequest(
            "one-sided",
            GenSpec("regular-bipartite", 10_000, 16, "vertex-one-sided", seed=seed),
        )
        for seed in range(SEEDS)
    ]
    rows = run_experiment_suite(requests, jobs=JOBS)
    arrivals = sum(r["n"] for r in rows)
    spilled = sum(r["spilled_vertices"] for r in rows)
    assert all(r["proper"] for r in rows)
    rate = spilled / arrivals
    assert rate <= 1e-2, f"spilled-vertex fraction {rate}"
    _line(f"C6 spill rarity at d=16, n=10^4: PASS (fraction {rate:.2e} <= 1e-2)")


def test_c07_kout_matching_rate():
    res = run_kout_experiment(50, "2.72", 3, trials=10_000, seed=2024)
    assert res.u_size == 136
    assert res.rate <= 1e-3, f"failure rate {res.rate}"
    for n in (1, 2):
        forced = run_kout_experiment(n, "3", 3, trials=10_000, seed=n)
        assert forced.failures == 0
    _line(
        f"C7 3-out matching failure rate: PASS (n=50 rate {res.rate:.1e} <= 1e-3; "
        f"n=1,2 exactly zero)"
    )


def test_c08_matcher_equals_exhaustive_oracle():
    rng = random.Random(88)
    agreements = 0
    for _ in range(10_000):
        n = rng.randrange(0, 11)
        palette = rng.randrange(3, 14)
        slots = [tuple(sample_distinct(rng, palette, 3)) for _ in range(n)]
        fast = maximum_matching(slots)
        slow = brute_force_match(slots)
        assert (-1 in fast) == (slow is None), slots
        if slow is not None:
            assert len(set(fast)) == n and all(c in slot for c, slot in zip(fast, slots))
        agreements += 1
    _line(f"C8 matcher vs exhaustive search: PASS ({agreements} instances agree)")


def test_c09_offline_colorers():
    rng = random.Random(13)
    checked = 0
    for _ in range(4000):
        nl = rng.randrange(1, 7)
        nr = rng.randrange(1, 7)
        pool = [(a, nl + b) for a in range(nl) for b in range(nr)]
        rng.shuffle(pool)
        edges = pool[: rng.randrange(1, min(13, len(pool) + 1))]
        sides = {**{i: 0 for i in range(nl)}, **{nl + j: 1 for j in range(nr)}}
        degrees = Counter(chain.from_iterable(edges))  # vertices in first-appearance order
        dmax = max(degrees.values())
        colored = color_bipartite_exact(list(edges), degrees, [sides[x] for x in degrees], dmax)
        colors = [c for _, _, c in colored]
        assert _proper(edges, colors)
        assert len(set(colors)) == dmax == _min_colors(edges, dmax), edges
        checked += 1

    general_checked = 0
    for _ in range(10_000):
        n = rng.randrange(2, 51)
        want = rng.randrange(1, 3 * n)
        edges = set()
        for _ in range(want):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        edges = sorted(edges)
        if not edges:
            continue
        degrees = Counter(chain.from_iterable(edges))
        dmax = max(degrees.values())
        colors = [c for _, _, c in color_general(list(edges), degrees, dmax)]
        assert _proper(edges, colors)
        assert max(colors) <= dmax
        general_checked += 1
    _line(
        f"C9 offline colorers: PASS ({checked} bipartite instances at the exact "
        f"minimum; {general_checked} general instances within max degree + 1)"
    )


def _proper(edges, colors):
    seen = set()
    for (a, b), c in zip(edges, colors):
        if (a, c) in seen or (b, c) in seen:
            return False
        seen.add((a, c))
        seen.add((b, c))
    return True


def _min_colors(edges, upper):
    m = len(edges)
    for q in range(1, upper + 1):
        used = {}

        def fits(i):
            if i == m:
                return True
            a, b = edges[i]
            ua = used.setdefault(a, set())
            ub = used.setdefault(b, set())
            for c in range(q):
                if c not in ua and c not in ub:
                    ua.add(c)
                    ub.add(c)
                    if fits(i + 1):
                        return True
                    ua.remove(c)
                    ub.remove(c)
            return False

        if fits(0):
            return q
    return upper + 1


def test_c10_determinism(tmp_path, capsys):
    # identical seeds must reproduce stream files and output files byte
    # for byte, and run rows field for field, across two invocations
    for family, mode, alg in [
        ("regular-bipartite", "vertex-one-sided", "one-sided"),
        ("regular-general", "edge", "edge-sqrt"),
        ("adversarial-frontload", "edge", "edge-general"),
    ]:
        paths = []
        for attempt in (0, 1):
            stream = tmp_path / f"{family}-{attempt}.txt"
            out = tmp_path / f"{family}-{attempt}.out"
            assert cli_main([
                "gen", "--family", family, "--n", "64", "--delta", "8",
                "--mode", mode, "--seed", "9", "-o", str(stream),
            ]) == 0
            assert cli_main([
                "run", str(stream), "--alg", alg, "--s", "2", "--force-stream",
                "-o", str(out),
            ]) == 0
            paths.append((stream.read_bytes(), out.read_bytes()))
        assert paths[0] == paths[1], f"{family} not reproducible"

    spec = GenSpec("regular-bipartite", 64, 8, "vertex-one-sided", seed=4)
    rows = [execute_run(RunRequest("one-sided", spec)) for _ in (0, 1)]
    # wall-clock time is the one legitimately varying field
    for row in rows:
        del row["millis"]
    assert rows[0] == rows[1]
    capsys.readouterr()
    _line("C10 determinism: PASS (stream files, outputs, and run rows reproduce)")


def test_c11_peak_per_input_word_falls_as_delta_grows(grid_rows):
    # on bipartite inputs at fixed n, each streaming preset's median peak
    # against the input's 2m words must fall strictly with delta. General
    # graph rows are left out: at most grid sizes no level forms, so their
    # base store holds every edge and their peak stays above the input
    ratios = {}
    for row in grid_rows:
        if row["family"] in BIPARTITE_FAMILIES and row["_stats"] is not None:
            cell = ratios.setdefault((row["preset"], row["family"], row["n"]), {})
            words = 2 * row["_stats"].edges_emitted
            cell.setdefault(row["delta"], []).append(row["peak_words"] / words)
    assert len(ratios) == len(GRID_PLAN) * len(BIPARTITE_FAMILIES) * len(GRID_N)
    for key, by_delta in sorted(ratios.items()):
        medians = [statistics.median(by_delta[d]) for d in GRID_DELTA]
        assert all(a > b for a, b in zip(medians, medians[1:])), (key, medians)
    _line(
        f"C11 peak words / 2m fall as delta grows {GRID_DELTA}: PASS "
        f"({len(ratios)} preset, family and n cells)"
    )
