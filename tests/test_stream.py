import collections
import io
import random
import tracemalloc

import pytest

from streamcolor.errors import (
    DegreeExceeded,
    DuplicateEdge,
    IoFailure,
    MalformedLine,
    ModeMismatch,
    SelfLoop,
    StreamColorError,
)
from streamcolor.stream import (
    AssignmentWriter,
    EdgeBlock,
    StreamHeader,
    VertexArrival,
    parse_header,
    parse_output,
    parse_stream,
)


def events_of(text):
    header, events = parse_stream(io.StringIO(text))
    return header, list(events)


def edges_until_error(events, error):
    """The edges pulled from `events` before `error` is raised."""
    got = []
    with pytest.raises(error):
        for block in events:
            got.extend(zip(block.us, block.vs))
    return got


def test_header_then_vertex_arrival():
    header, evs = events_of("H 2 3 2 vertex-one-sided 0 42\nV 0 1 2\n")
    assert header.n_online == 2 and header.n_offline == 3 and header.delta == 2
    assert header.seed == 42
    assert evs == [VertexArrival(0, (1, 2))]


def test_edge_self_loop_rejected():
    with pytest.raises(SelfLoop):
        events_of("H 4 0 2 edge 0 1\ne 0 0\n")


def test_degree_exceeded_at_third_edge():
    text = "H 4 0 2 edge 0 1\ne 0 1\ne 0 2\ne 0 3\n"
    header, events = parse_stream(io.StringIO(text))
    got = edges_until_error(events, DegreeExceeded)
    assert len(got) == 2  # detection happens exactly at the violating event


def test_degree_counts_both_endpoints():
    text = "H 6 0 2 edge 0 1\ne 0 5\ne 1 5\ne 2 5\n"
    with pytest.raises(DegreeExceeded):
        events_of(text)


def test_event_kind_must_match_mode():
    with pytest.raises(ModeMismatch):
        events_of("H 4 4 2 vertex-one-sided 0 1\ne 0 4\n")
    with pytest.raises(ModeMismatch):
        events_of("H 4 0 2 edge 0 1\nV 0 1\n")
    with pytest.raises(ModeMismatch):
        events_of("H 4 4 2 vertex-one-sided 0 1\nB 0 4\n")


def test_batch_size_checked_per_line():
    with pytest.raises(MalformedLine):
        events_of("H 4 4 4 batch 2 1\nB 0 4 5 6\n")
    header, evs = events_of("H 4 4 4 batch 2 1\nB 0 4 5\n")
    assert evs == [VertexArrival(0, (4, 5))]


def test_duplicate_neighbor_in_one_arrival():
    with pytest.raises(DuplicateEdge):
        events_of("H 2 4 3 vertex-one-sided 0 1\nV 0 2 2\n")


@pytest.mark.parametrize(
    "text",
    [
        "H 2 2 2 edge 0 1\ne 0 4\n",  # one past the last id
        "H 2 2 2 edge 0 1\ne -1 2\n",
        "H 2 2 2 vertex-one-sided 0 1\nV 0 2 4\n",  # a neighbor
        "H 2 2 2 vertex-one-sided 0 1\nV 0 -3 2\n",
        "H 2 2 2 vertex-one-sided 0 1\nV 4 2\n",  # the arriving vertex
        "H 2 2 2 vertex-one-sided 0 1\nV 7\n",  # with no neighbors
        "H 2 2 2 batch 1 1\nB 0 9\n",
        "H 4 0 2 vertex-two-sided 0 1\nV 0\nV 1 0 4\n",
    ],
)
def test_vertex_ids_outside_the_declared_range_rejected(text):
    with pytest.raises(MalformedLine, match=r"outside \[0, 4\)"):
        events_of(text)


def test_isolated_vertex_arrival_allowed():
    header, evs = events_of("H 2 2 1 vertex-one-sided 0 1\nV 0\nV 1 2\n")
    assert evs[0] == VertexArrival(0, ())


def test_header_validation():
    with pytest.raises(MalformedLine):
        parse_header("H 2 2 0 edge 0 1")  # delta below 1
    with pytest.raises(MalformedLine):
        parse_header("H 2 2 4 batch 0 1")  # batch mode needs batch_size
    with pytest.raises(MalformedLine):
        parse_header("H 2 2 4 batch 5 1")  # batch_size above delta
    with pytest.raises(MalformedLine):
        parse_header("H 2 2 4 edge 3 1")  # batch_size outside batch mode
    with pytest.raises(MalformedLine):
        parse_header("H 2 2 4 sideways 0 1")
    with pytest.raises(MalformedLine):
        events_of("e 0 1\n")  # no header


def test_second_header_rejected():
    with pytest.raises(MalformedLine):
        events_of("H 4 0 2 edge 0 1\nH 4 0 2 edge 0 1\n")


def test_each_record_parses_to_its_event():
    header, evs = events_of("H 3 3 2 vertex-one-sided 0 9\nV 0 3 4\nV 1\nV 2 5\n")
    assert header == StreamHeader(3, 3, 2, "vertex-one-sided", 0, 9)
    assert evs == [VertexArrival(0, (3, 4)), VertexArrival(1, ()), VertexArrival(2, (5,))]
    header, evs = events_of("H 4 0 2 edge 0 9\ne 0 1\ne 2 3\n")
    assert header == StreamHeader(4, 0, 2, "edge", 0, 9)
    assert evs == [EdgeBlock([0, 2], [1, 3])]
    _, evs = events_of("H 8 8 2 batch 1 0\nB 7 8\n")
    assert evs == [VertexArrival(7, (8,))]


def test_emit_assignment_format():
    sink = io.StringIO()
    w = AssignmentWriter(sink)
    w.emit(0, 5, 17)
    w.emit(1, 2, 0)
    assert sink.getvalue() == "c 0 5 17\nc 1 2 0\n"


def test_emit_after_close_is_io_failure():
    sink = io.StringIO()
    sink.close()
    with pytest.raises(IoFailure):
        AssignmentWriter(sink).emit(0, 1, 2)


def test_emit_to_a_broken_pipe_is_io_failure():
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with pytest.raises(IoFailure, match="Broken pipe"):
        AssignmentWriter(BrokenPipe()).emit(0, 1, 2)


def test_writer_tracks_distinct_colors_and_trailer():
    sink = io.StringIO()
    w = AssignmentWriter(sink)
    w.emit(0, 5, 3)
    w.emit(1, 6, 3)
    w.emit(2, 7, 4)
    w.trailer(colors_used=2, peak_words=99)
    assert w.count == 3
    assert sink.getvalue().endswith("T 2 99\n")


def test_parse_output_round_trip():
    text = "c 0 5 17\nc 1 2 0\nT 2 10\n"
    assignments, trailer = parse_output(io.StringIO(text))
    assert assignments == [(0, 5, 17), (1, 2, 0)]
    assert trailer == (2, 10)
    with pytest.raises(MalformedLine):
        parse_output(io.StringIO("c 1 2\n"))


def test_parser_is_lazy():
    # a malformed tail must not fail until reached
    text = "H 4 0 3 edge 0 1\ne 0 1\nzzz\n"
    header, events = parse_stream(io.StringIO(text))
    first = next(events)
    assert list(zip(first.us, first.vs)) == [(0, 1)]
    with pytest.raises(MalformedLine):
        next(events)


@pytest.mark.parametrize(
    "body",
    ["edge 0 1\ne 0 1\n",  # a block checked in bulk
     "edge 0 1\n# one comment\ne 0 1\n",  # a block parsed line by line
     "vertex-two-sided 0 1\nV 0\nV 1 0\n",
     # the highest id costs no more than the lowest, in either parser
     "edge 0 1\ne 0 9999999\n",
     "edge 0 1\n# one comment\ne 0 9999999\n",
     "vertex-two-sided 0 1\nV 0\nV 9999999 0\n"],
)
def test_degree_counters_grow_with_the_ids_the_stream_names(body):
    # the header declares ten million ids; the stream names two
    tracemalloc.start()
    try:
        _, events = events_of("H 10000000 0 3 " + body)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events
    assert peak < 1_000_000


# --- the block parser against the per-line parser it replaced ---


def reference_events(header, it):
    """The edge-at-a-time parser the block parser must agree with, kept as
    it was: one event per line, each error at its line."""
    delta = header.delta
    mode = header.mode
    n = header.n_total
    degrees = {}
    degree = degrees.get
    lineno = 1

    for raw in it:
        lineno += 1
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]

        if kind == "e":
            if mode != "edge":
                raise ModeMismatch(f"line {lineno}: edge event in {mode} stream")
            if len(parts) != 3:
                raise MalformedLine(f"line {lineno}: edge needs exactly two endpoints")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise MalformedLine(f"line {lineno}: non-integer endpoint") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedLine(f"line {lineno}: vertex id outside [0, {n})")
            if u == v:
                raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
            du = degree(u, 0) + 1
            dv = degree(v, 0) + 1
            if du > delta or dv > delta:
                who = u if du > delta else v
                raise DegreeExceeded(f"line {lineno}: vertex {who} passes delta={delta}")
            degrees[u] = du
            degrees[v] = dv
            yield u, v

        elif kind == "V":
            if mode not in ("vertex-one-sided", "vertex-two-sided"):
                raise ModeMismatch(f"line {lineno}: vertex event in {mode} stream")
            raise AssertionError("edge streams only")

        elif kind == "B":
            if mode != "batch":
                raise ModeMismatch(f"line {lineno}: batch event in {mode} stream")
            raise AssertionError("edge streams only")

        elif kind == "H":
            raise MalformedLine(f"line {lineno}: second header line")
        elif kind[0] != "#":  # a first token starting with '#' marks a comment
            raise MalformedLine(f"line {lineno}: unknown record {kind!r}")


def pulled(edge_lists):
    """Edges pulled until the first error, and that error's type and text."""
    edges = []
    try:
        for got in edge_lists:
            edges.extend(got)
    except (StreamColorError, UnicodeDecodeError) as exc:
        return edges, type(exc), str(exc)
    return edges, None, None


def both_parsers(text):
    header, blocks = parse_stream(io.StringIO(text))
    it = iter(io.StringIO(text))
    next(it)  # the header
    ref = reference_events(header, it)
    return (
        pulled(zip(block.us, block.vs) for block in blocks),
        pulled([edge] for edge in ref),
    )


N, BLOCK = 3000, 4096
FAULTS = (
    "non-integer", "out of range", "self-loop", "degree", "unknown", "second header", "V",
)


def edge_lines(rng, count, styled):
    """`count` valid edge lines; `styled` mixes in every other form a line may take."""
    lines = []
    while len(lines) < count:
        u, v = rng.sample(range(N), 2)
        form = rng.randrange(40) if styled else 0
        if form == 1:
            lines.append("\n")
        elif form == 2:
            lines.append("# a comment\n")
        elif form == 3:
            lines.append(f"e\t{u}\t{v}\n")
        elif form == 4:
            lines.append(f"e {u} {v}\r\n")
        elif form == 5:
            lines.append(f"e +{u} {v}\n")
        elif form == 6:
            lines.append(f"e 00{u} {v}\n")
        elif form == 7:
            lines.append(f"  e {u}  {v} \n")
        else:
            lines.append(f"e {u} {v}\n")
    return lines


def degrees(lines):
    counts = collections.Counter()
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "e":
            counts.update((int(parts[1]), int(parts[2])))
    return counts


def fault_line(kind, rng, before):
    if kind == "non-integer":
        return rng.choice(["e 1 x\n", "e 1.5 2\n", "e 1\n", "e 1 2 3\n"])
    if kind == "out of range":
        return rng.choice([f"e 1 {N}\n", "e -1 2\n", f"e {10 ** 30} 2\n"])
    if kind == "self-loop":
        return "e 7 7\n"
    if kind == "degree":  # the busiest vertex so far, at the header's delta
        top = degrees(before).most_common(1)[0][0]
        return f"e {top} {(top + 1) % N}\n"
    if kind == "unknown":
        return "x 1 2\n"
    if kind == "second header":
        return f"H {N} 0 9 edge 0 1\n"
    return "V 1 2\n"


@pytest.mark.parametrize("styled", [False, True], ids=["plain", "styled"])
@pytest.mark.parametrize("where", ["first", "4096", "4097", "last"])
@pytest.mark.parametrize("kind", FAULTS)
def test_block_parser_matches_the_per_line_parser_up_to_each_error(kind, where, styled):
    """One fault at body line 1, 4,096, 4,097 (either side of the first block
    boundary) or the last, in a stream of one to three blocks: the same
    edges come out before the error, and the error has the same type and
    text, line number included."""
    rng = random.Random(f"{kind}/{where}/{styled}")
    length = rng.randrange(2 if where == "first" else BLOCK + 1, 3 * BLOCK + 1)
    at = {"first": 1, "4096": BLOCK, "4097": BLOCK + 1, "last": length}[where]
    lines = edge_lines(rng, length, styled)
    delta = N
    if kind == "degree":  # the first edge cannot pass a delta of at least 1
        at = max(at, 2)
        lines[0] = "e 1 2\n"
        delta = max(degrees(lines[: at - 1]).values())
    lines[at - 1] = fault_line(kind, rng, lines[: at - 1])
    text = f"H {N} 0 {delta} edge 0 1\n" + "".join(lines)
    if rng.random() < 0.5:
        text = text[:-1]  # the last line without its newline
    new, ref = both_parsers(text)
    assert ref[1] is not None and ref[2].startswith(f"line {at + 1}:")
    assert new == ref


@pytest.mark.parametrize("styled", [False, True], ids=["plain", "styled"])
@pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_block_parser_matches_the_per_line_parser_without_a_fault(length, styled):
    rng = random.Random(length)
    text = f"H {N} 0 {N} edge 0 1\n" + "".join(edge_lines(rng, length, styled))
    new, ref = both_parsers(text)
    assert ref[1] is None
    assert new == ref


def test_a_decode_error_inside_a_block_comes_after_the_edges_read_before_it(tmp_path):
    stream = tmp_path / "s.txt"
    text = f"H {N} 0 {N} edge 0 1\n" + "".join(edge_lines(random.Random(5), 3 * BLOCK, False))
    stream.write_bytes(text.encode() + b"e 1 \xff\n")
    with open(stream) as fh, open(stream) as ref_fh:
        header, blocks = parse_stream(fh)
        next(ref_fh)  # the header
        new = pulled(zip(block.us, block.vs) for block in blocks)
        ref = pulled([edge] for edge in reference_events(header, ref_fh))
    # the file is decoded a chunk at a time: the edges of the chunk holding
    # the bad byte never arrive, those before it do, in the third block
    assert ref[1] is UnicodeDecodeError and 2 * BLOCK < len(ref[0]) < 3 * BLOCK
    assert new == ref
