import io

import pytest

from streamcolor.errors import (
    DegreeExceeded,
    DuplicateEdge,
    IoFailure,
    MalformedLine,
    ModeMismatch,
    SelfLoop,
)
from streamcolor.stream import (
    AssignmentWriter,
    BatchArrival,
    EdgeArrival,
    StreamHeader,
    VertexArrival,
    event_to_line,
    parse_header,
    parse_output,
    parse_stream,
    serialize_stream,
)


def events_of(text):
    header, events = parse_stream(io.StringIO(text))
    return header, list(events)


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
    got = []
    with pytest.raises(DegreeExceeded):
        for ev in events:
            got.append(ev)
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
    assert evs == [BatchArrival(0, (4, 5))]


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


def test_round_trip_serialization():
    text = "H 3 3 2 vertex-one-sided 0 9\nV 0 3 4\nV 1\nV 2 5\n"
    header, evs = events_of(text)
    assert serialize_stream(header, evs) == text
    etext = "H 4 0 2 edge 0 9\ne 0 1\ne 2 3\n"
    header, evs = events_of(etext)
    assert serialize_stream(header, evs) == etext


def test_event_to_line_forms():
    assert event_to_line(EdgeArrival(0, 5)) == "e 0 5"
    assert event_to_line(VertexArrival(1, (2, 3))) == "V 1 2 3"
    assert event_to_line(BatchArrival(7, (8,))) == "B 7 8"


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
    assert [tuple(a) for a in assignments] == [(0, 5, 17), (1, 2, 0)]
    assert trailer == (2, 10)
    with pytest.raises(MalformedLine):
        parse_output(io.StringIO("c 1 2\n"))


def test_parser_is_lazy():
    # a malformed tail must not fail until reached
    text = "H 4 0 3 edge 0 1\ne 0 1\nzzz\n"
    header, events = parse_stream(io.StringIO(text))
    assert next(events) == EdgeArrival(0, 1)
    with pytest.raises(MalformedLine):
        next(events)
