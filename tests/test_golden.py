"""Golden output hashes and declared budgets, pinned value for value.

Each hash case generates a small stream (n=256) with a fixed seed, runs
one preset through the CLI and compares the SHA-256 of the output's `c`
lines, and the two values of its `T` trailer (colors used, peak words),
with the recorded ones. The two are pinned apart: a change meant to keep
every color (a refactor or a speed-up) must leave the `c`-line hashes as
they are, while a change to what the meter charges moves only `T`
values; either records its new values and says why. The budget table pins `declared_budget` per header in the
same way, and the stream table pins the bytes `generate` writes for
every feasible family and mode.
"""

import hashlib

import pytest

from streamcolor.cli import main
from streamcolor.dispatch import ceil_sqrt
from streamcolor.errors import InfeasibleSpec
from streamcolor.harness import FAMILIES, GenSpec, check_spec, generate
from streamcolor.presets import build_pipeline, declared_budget, run_stream
from streamcolor.stream import MODES, StreamHeader, parse_stream

# (id, family, mode, delta, batch_size, preset, extra run arguments,
#  sha256 of the c lines, T colors_used, T peak_words)
CASES = [
    ("one-sided-vertex", "regular-bipartite", "vertex-one-sided", 32, 0, "one-sided", (),
     "5ab49489a4c88808fb335256a740fbc1690c8b04c70146e38114f4183069ffae",
     264, 1_216),
    ("one-sided-batch", "regular-bipartite", "batch", 32, 4, "one-sided", (),
     "ca5a12a8a2601bd5180bbd5653b8703acf99c9ff1b6c01ab3493e25501fb1fce",
     1_576, 1_304),
    # a declared-bipartite stream is the router's one header-sides level,
    # seeded as level 0 (split_seed(seed, 100)); so are the three bipartite
    # forced edge cases below
    ("vertex-general-bipartite", "regular-bipartite", "vertex-two-sided", 32, 0,
     "vertex-general", (),
     "067358cb0b4b15a4f9119b43d2adc3312723223c242bcb4d75a990579a424fda",
     521, 2_164),
    # Δ=64 at n=256 builds one bipartization level (plan_levels gives [96]);
    # the base store's color_general charges one mask word per vertex (256);
    # level 0's bound 96 is not below Δ, so it keeps no degree counters
    ("vertex-general-general", "regular-general", "vertex-two-sided", 64, 0,
     "vertex-general", (),
     "aea2a8245aa0810d26ec47b15bfaac6ab75c42fe578fc7921ef979fec8331fd8",
     1_135, 9_812),
    ("edge-sqrt-forced", "regular-bipartite", "edge", 32, 0, "edge-sqrt", ("--force-stream",),
     "e7072df4355463c841a88da472bdfd797157a9fe7c58a97e7dd9e72558772042",
     550, 8_602),
    ("edge-sqrt-fallback", "regular-bipartite", "edge", 32, 0, "edge-sqrt", (),
     "6db6200ba9fcb6fad87481833beaa5149fee3c0da88a2a986f46dce7440c9b44",
     32, 33_792),
    # below its threshold edge-sqrt stores and colors as offline-exact does:
    # the same stream, the same bytes
    ("offline-exact-on-edge-sqrt-fallback", "regular-bipartite", "edge", 32, 0,
     "offline-exact", (),
     "6db6200ba9fcb6fad87481833beaa5149fee3c0da88a2a986f46dce7440c9b44",
     32, 33_792),
    # the three edge-general cases: a grouped sub-colorer is told each
    # batch's band, so its peak holds no batch counter of its own
    ("edge-general-s2-forced", "regular-bipartite", "edge", 32, 0, "edge-general",
     ("--s", "2", "--force-stream"),
     "44fcc742649c962315ae783218605c69b8af203077ccd3d7a865f4e5a60fa641",
     2_117, 7_816),
    # s=1 caps the grouped buffer at n edges: 14 flushes at this seed
    ("edge-general-s1-forced", "regular-bipartite", "edge", 32, 0, "edge-general",
     ("--s", "1", "--force-stream"),
     "b69f529f5b8a76b278665df31edfa7cf003adf2b3530e002d59df0e0ac8e5932",
     470, 3_516),
    # one EdgeBipartization level over grouped dispatchers sharing one meter;
    # 256 mask words in the base store's color_general and no level-0
    # degree counters, as above
    ("edge-general-general", "regular-general", "edge", 64, 0, "edge-general",
     ("--s", "2", "--force-stream"),
     "d3b92c43002d8d29e3dcd70f6e169d6fbfb63867d521a533160b2a87bbf54389",
     200, 10_146),
    # s = 11, one below ceil(sqrt(128)): grouped levels [192, 96], and level 1
    # clamps 11 to its own ceil(sqrt(96)) = 10
    ("edge-general-deep-s11", "regular-general", "edge", 128, 0, "edge-general",
     ("--s", "11", "--force-stream"),
     "d5f0fe30fb472d29632d554ac944876105a6206a913ee05b80a919c138523df3",
     5_528, 33_632),
    ("offline-exact", "regular-bipartite", "vertex-one-sided", 32, 0, "offline-exact", (),
     "8ac5c01bea6c4513ff6882fa09f8da45bd013f59d3871bc70dc925fcb261e5d8",
     32, 33_792),
    # every vertex has degree 32: the exact colorer's flat per-vertex rows
    ("offline-exact-regular", "adversarial-frontload", "edge", 32, 0, "offline-exact", (),
     "073dd434e13e6b61b1e7a49d6fbe51af15727433a26014e06d492fa7c85171b4",
     32, 33_792),
    # 4,472 edges on 512 vertices, not regular: its per-vertex dicts
    ("offline-exact-irregular", "random-bipartite", "edge", 32, 0, "offline-exact", (),
     "792470a2bbfefa0bca0b98d9dfed88b43a753656e1a73359f264269c42d45bc1",
     32, 9_968),
    ("offline-greedy", "regular-general", "edge", 32, 0, "offline-greedy", (),
     "3a5345b76c5c70517523765f7e744b3498b8191b016fe0ee5865c678c016dd30",
     37, 8_192),
]

SEED = 11

# (family, delta) at n = 256; on the general stream level 0's bound is
# ceil(1.5 * 64) = 96, so its own ceil(sqrt(bound)) is 10, above the header's 8
ONE_PATH = [("regular-bipartite", 32), ("adversarial-frontload", 64), ("regular-general", 64)]

# the edge-sqrt-fallback case's stream and values: the same edges in the
# same order color the same, however the lines around them are written
LINE_BY_LINE = next(case[7:] for case in CASES if case[0] == "edge-sqrt-fallback")


def output_digest(path):
    """The SHA-256 of an output file's `c` lines, and its `T` values."""
    body, trailer = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
    kind, colors_used, peak_words = trailer.split()
    assert kind == b"T"
    return hashlib.sha256(body + b"\n").hexdigest(), int(colors_used), int(peak_words)


def run_output(tmp_path, family, mode, delta, batch_size, preset, extra):
    stream = tmp_path / "stream.txt"
    out = tmp_path / "out.txt"
    stream.write_text(generate(GenSpec(family, 256, delta, mode, SEED, batch_size)))
    assert main(["run", str(stream), "--alg", preset, *extra, "-o", str(out)]) == 0
    return output_digest(out)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_run_output_matches_its_golden_hash(case, tmp_path, monkeypatch):
    monkeypatch.delenv("STREAMCOLOR_SEED", raising=False)
    _, family, mode, delta, batch_size, preset, extra, c_lines, colors_used, peak = case
    got = run_output(tmp_path, family, mode, delta, batch_size, preset, extra)
    assert got[0] == c_lines  # the colors, byte for byte
    assert got[1:] == (colors_used, peak)  # the trailer


@pytest.mark.parametrize("force", [True, False], ids=["forced", "default"])
@pytest.mark.parametrize("top", [False, True], ids=["s-ceil-sqrt", "s-1000"])
@pytest.mark.parametrize("family, delta", ONE_PATH, ids=[f"{f}-{d}" for f, d in ONE_PATH])
def test_edge_general_from_ceil_sqrt_delta_up_is_edge_sqrt(family, delta, top, force, tmp_path,
                                                            monkeypatch):
    """edge-sqrt is edge-general at the top of its range: from s = ceil(sqrt(delta))
    up, the two names build one pipeline and write the same bytes."""
    monkeypatch.delenv("STREAMCOLOR_SEED", raising=False)
    s = 1000 if top else ceil_sqrt(delta)
    text = generate(GenSpec(family, 256, delta, "edge", SEED))
    stream = tmp_path / "stream.txt"
    stream.write_text(text)
    forced = ["--force-stream"] if force else []
    written, budgets, knobs = [], [], []
    for alg in ("edge-sqrt", "edge-general"):
        out = tmp_path / f"{alg}.txt"
        assert main(["run", str(stream), "--alg", alg, "--s", str(s), *forced, "-o", str(out)]) == 0
        written.append(out.read_bytes())
        header, events = parse_stream(text.splitlines())
        budgets.append(declared_budget(header, alg, s, force))
        stats = run_stream(build_pipeline(header, alg, s=s, force_stream=force), events,
                           emit=lambda u, v, c: None)
        knobs.append(stats.s)
    assert written[0] == written[1]
    assert budgets[0] == budgets[1]
    assert knobs == [ceil_sqrt(delta)] * 2


def test_a_stream_read_line_by_line_matches_its_golden_hash(tmp_path, monkeypatch):
    """The edge-sqrt-fallback stream with a comment, a blank line and
    tab-separated edge lines in each of its three blocks, so that every
    block goes through the per-line parser rather than the block parser."""
    monkeypatch.delenv("STREAMCOLOR_SEED", raising=False)
    header, *body = generate(GenSpec("regular-bipartite", 256, 32, "edge", SEED)).splitlines()
    lines = [header]
    for i, line in enumerate(body):
        if i % 1000 == 100:
            lines.append("# a comment")
        if i % 1500 == 200:
            lines.append("")
        lines.append(line.replace(" ", "\t") if i % 300 == 7 else line)
    stream, out = tmp_path / "stream.txt", tmp_path / "out.txt"
    stream.write_text("\n".join(lines) + "\n")
    assert len(lines) > 2 * 4096 + 1
    assert main(["run", str(stream), "--alg", "edge-sqrt", "-o", str(out)]) == 0
    assert output_digest(out) == LINE_BY_LINE


# (id, n_online, n_offline, delta, mode, batch_size, preset, s, force_stream, budget)
BUDGETS = [
    ("one-sided-vertex", 256, 256, 32, "vertex-one-sided", 0, "one-sided", 1, False, 296),
    ("one-sided-batch", 256, 256, 32, "batch", 4, "one-sided", 1, False, 2_144),
    ("one-sided-delta1", 256, 256, 1, "vertex-one-sided", 0, "one-sided", 1, False, 1),
    ("vertex-general-bipartite", 256, 256, 32, "vertex-two-sided", 0, "vertex-general", 1,
     False, 592),
    ("vertex-general-0-levels", 256, 0, 16, "vertex-two-sided", 0, "vertex-general", 1,
     False, 17),
    ("vertex-general-1-level", 256, 0, 64, "vertex-two-sided", 0, "vertex-general", 1,
     False, 1_829),
    ("vertex-general-4-levels", 1024, 0, 1024, "vertex-two-sided", 0, "vertex-general", 1,
     False, 53_795),
    ("edge-sqrt-forced", 256, 256, 32, "edge", 0, "edge-sqrt", 1, True, 698),
    ("edge-sqrt-fallback", 256, 256, 32, "edge", 0, "edge-sqrt", 1, False, 32),
    ("edge-sqrt-fallback-general", 256, 0, 32, "edge", 0, "edge-sqrt", 1, False, 33),
    ("edge-sqrt-1-level", 256, 0, 64, "edge", 0, "edge-sqrt", 1, True, 2_011),
    ("edge-sqrt-4-levels", 1024, 0, 1024, "edge", 0, "edge-sqrt", 1, True, 58_651),
    ("edge-sqrt-delta1", 256, 256, 1, "edge", 0, "edge-sqrt", 1, True, 1),
    ("edge-general-s1", 256, 256, 64, "edge", 0, "edge-general", 1, True, 17_336),
    ("edge-general-s2", 256, 256, 64, "edge", 0, "edge-general", 2, True, 8_856),
    # from s = ceil(sqrt(delta)) up, edge-general is edge-sqrt: the same
    # dispatcher, and so the same budget as edge-sqrt on this header
    ("edge-general-s-sqrt", 256, 256, 64, "edge", 0, "edge-general", 8, True, 1_248),
    ("edge-general-s-clamped", 256, 256, 64, "edge", 0, "edge-general", 100, True, 1_248),
    ("edge-general-fallback", 256, 256, 64, "edge", 0, "edge-general", 2, False, 64),
    ("edge-general-0-levels", 256, 0, 16, "edge", 0, "edge-general", 2, True, 17),
    ("edge-general-1-level", 256, 0, 64, "edge", 0, "edge-general", 2, True, 16_515),
    ("edge-general-4-levels", 1024, 0, 1024, "edge", 0, "edge-general", 1, True, 3_107_987),
    ("edge-general-delta1", 256, 256, 1, "edge", 0, "edge-general", 1, True, 1),
    ("offline-exact", 256, 256, 32, "edge", 0, "offline-exact", 1, False, 32),
    ("offline-exact-delta1", 256, 256, 1, "vertex-one-sided", 0, "offline-exact", 1, False, 1),
    ("offline-greedy", 256, 0, 32, "edge", 0, "offline-greedy", 1, False, 63),
    ("offline-greedy-delta1", 256, 0, 1, "edge", 0, "offline-greedy", 1, False, 1),
    # s at or above ceil(sqrt(delta)): clamped to it, where edge-general is
    # edge-sqrt, so each budget is edge-sqrt's on the same header
    ("edge-general-deep-s16", 256, 0, 256, "edge", 0, "edge-general", 16, True, 13_745),
    ("edge-general-deep-s32", 256, 0, 256, "edge", 0, "edge-general", 32, True, 13_745),
    ("edge-general-deep-s64", 256, 0, 256, "edge", 0, "edge-general", 64, True, 13_745),
    ("edge-general-deep-n1024-s32", 1024, 0, 1024, "edge", 0, "edge-general", 32, True,
     58_651),
    ("edge-general-deep-n1024-s64", 1024, 0, 1024, "edge", 0, "edge-general", 64, True,
     58_651),
    ("edge-general-deep-n4096-s32", 4096, 0, 1024, "edge", 0, "edge-general", 32, True,
     58_651),
    ("edge-general-deep-n4096-s64", 4096, 0, 1024, "edge", 0, "edge-general", 64, True,
     58_651),
    # s just below ceil(sqrt(delta)), so above a deeper level's ceil(sqrt(bound)):
    # grouped levels, whose buffer cap, flush bound and budget each use the
    # level-clamped s
    ("edge-general-deep-s14", 256, 0, 256, "edge", 0, "edge-general", 14, True, 39_039),
    ("edge-general-deep-s15", 256, 0, 256, "edge", 0, "edge-general", 15, True, 39_399),
    ("edge-general-deep-n1024-s31", 1024, 0, 1024, "edge", 0, "edge-general", 31, True,
     162_781),
    ("edge-general-deep-n4096-s31", 4096, 0, 1024, "edge", 0, "edge-general", 31, True,
     162_781),
]


@pytest.mark.parametrize("case", BUDGETS, ids=[c[0] for c in BUDGETS])
def test_declared_budget_matches_its_golden_value(case):
    _, n_online, n_offline, delta, mode, batch_size, preset, s, force, expected = case
    header = StreamHeader(n_online, n_offline, delta, mode, batch_size, 0)
    assert declared_budget(header, preset, s, force) == expected


@pytest.mark.parametrize("case", BUDGETS, ids=[c[0] for c in BUDGETS])
def test_the_budget_is_what_the_allocator_holds_and_is_promised(case):
    # read right after the build: the static blocks are reserved, every
    # dynamic one is still a promise
    _, n_online, n_offline, delta, mode, batch_size, preset, s, force, _ = case
    header = StreamHeader(n_online, n_offline, delta, mode, batch_size, 0)
    pipeline = build_pipeline(header, preset, s=s, force_stream=force)
    alloc = pipeline.run.alloc
    assert pipeline.budget == alloc.budget == alloc.total + alloc.promised


# (family, mode) -> SHA-256 of the stream `generate` writes at n = 64,
# delta = 16, seed 11 (batch size ceil(sqrt(16)) = 4): every feasible pair
STREAMS = {
    ("regular-bipartite", "edge"):
        "9d3c6f3f38ba0cd4dadb560b89a1bc06616d7e8538a563614ec8e59ac70841a3",
    ("regular-bipartite", "vertex-one-sided"):
        "6785f776fc9322d6fc87403e546f394eba21d528464baa947ce5202a203e2b6a",
    ("regular-bipartite", "vertex-two-sided"):
        "39655b0aa3925681fdd7853643c9d62694b969b9f63836438a89f59240928b23",
    ("regular-bipartite", "batch"):
        "01607006f5fbdcef1ccab2a025fcde99b70017335dd800bc9d8fda8606e324bb",
    ("random-bipartite", "edge"):
        "0b1a93a7152bf289bd7945f4f3c7609f3112d46788cdffb5ddcf627e67f88e51",
    ("random-bipartite", "vertex-one-sided"):
        "98c70a2e8fe8577deb4cdf6b0c0fed393673b178e339cce44c41d4f2e1acfde3",
    ("random-bipartite", "vertex-two-sided"):
        "d28b7ea48b950dc06d01d59bad8b88f4c4b350f3972112f0c402c16414c34cc8",
    ("regular-general", "edge"):
        "26320d8f6cbce1b9672cc4ee776a4596295aacc65eccb0c2ca55e70900580d5a",
    ("regular-general", "vertex-two-sided"):
        "5434a75351a1c9a67ff6e267570ffedd777eb96f3841fe375ee67f60abb5efd2",
    ("adversarial-frontload", "edge"):
        "fe42e97cfb77fb28d0c33e431850b9a79c323b0975156b47cdf585a7c54a9ab7",
    ("adversarial-frontload", "vertex-one-sided"):
        "e372b3cc04360453d01b7a03d9ed24665c7f8dacc71406cfe044380a3911dc57",
    ("adversarial-frontload", "vertex-two-sided"):
        "9a2d13bf969ed6a1fc9fdea96f2f03c0db38e67697a85227f6329a1cf002b743",
    ("adversarial-frontload", "batch"):
        "5b8841dc8c8cb59f6ca311624cfbb53a3080fb357f25d87d763001933a6bd3b0",
}


def test_the_stream_table_covers_every_feasible_family_and_mode():
    feasible = set()
    for family in FAMILIES:
        for mode in MODES:
            try:
                check_spec(GenSpec(family, 64, 16, mode, SEED))
            except InfeasibleSpec:
                continue
            feasible.add((family, mode))
    assert feasible == set(STREAMS)


@pytest.mark.parametrize("pair, expected", STREAMS.items(), ids=["-".join(p) for p in STREAMS])
def test_a_generated_stream_matches_its_golden_hash(pair, expected):
    family, mode = pair
    text = generate(GenSpec(family, 64, 16, mode, SEED))
    assert hashlib.sha256(text.encode()).hexdigest() == expected
