"""Graph-stream data model and the on-disk text formats.

A stream is UTF-8 text, one record per line:

    H <n_online> <n_offline> <delta> <mode> <batch_size> <seed>
    e <u> <v>                edge arrival
    V <u> <v1> ... <vd>      vertex arrival with all its edges
    B <u> <v1> ... <vk>      one batch of exactly k edges of u, as a VertexArrival

The header comes first and is mandatory. `mode` is one of `edge`,
`vertex-one-sided`, `vertex-two-sided`, `batch`; it decides which event
kinds are legal in the body. `batch_size` is 0 except in batch mode.
Vertex ids are dense and 0-based; in bipartite streams the online side is
[0, n_online) and the offline side is [n_online, n_online + n_offline).
For general graphs n_offline is 0 and every vertex shares one id space.

Output files carry one `c <u> <v> <color>` line per colored edge, in
emission order, then a trailer `T <colors_used> <peak_words>`.

The parser is single pass and lazy: it yields events in file order and
validates syntax, event-kind legality, vertex ids in [0, n_online +
n_offline), self-loops, duplicate neighbors within one arrival, a second
`V` line for one vertex, a `vertex-two-sided` neighbor that has not
arrived yet, and the declared degree bound; each error names its exact
line. Edge lines are read ahead (uncharged, like the file buffer) in
blocks of up to BLOCK_LINES, checked in bulk when all are plain
`e <digits> <digits>` lines within the degree bound and line by line
otherwise; the algorithm still consumes the edges one at a time, in
stream order. Degrees are counted per id the stream names, not per id
the header declares. Side-range semantics are left to the algorithm
layer.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import eq
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import (
    DegreeExceeded,
    DuplicateEdge,
    IoFailure,
    MalformedLine,
    ModeMismatch,
    SelfLoop,
    StreamColorError,
)

MODE_EDGE = "edge"
MODE_VERTEX_ONE_SIDED = "vertex-one-sided"
MODE_VERTEX_TWO_SIDED = "vertex-two-sided"
MODE_BATCH = "batch"

MODES = (MODE_EDGE, MODE_VERTEX_ONE_SIDED, MODE_VERTEX_TWO_SIDED, MODE_BATCH)

BLOCK_LINES = 4096  # edge lines read ahead per block
# whole `e <id> <id>` lines, ids of at most 18 digits; only the last may lack its newline
_EDGE_LINES = re.compile(r"(?:e [0-9]{1,18} [0-9]{1,18}\r?\n)*(?:e [0-9]{1,18} [0-9]{1,18})?")


class EdgeBlock(NamedTuple):  # consecutive edge arrivals: edge i is (us[i], vs[i])
    us: list[int]
    vs: list[int]


class VertexArrival(NamedTuple):
    u: int
    neighbors: tuple[int, ...]


StreamEvent = EdgeBlock | VertexArrival

Assignment = tuple[int, int, int]  # (u, v, color): a pipeline's output, a `c` record


@dataclass(frozen=True)
class StreamHeader:
    n_online: int
    n_offline: int
    delta: int
    mode: str
    batch_size: int
    seed: int

    @property
    def n_total(self) -> int:
        return self.n_online + self.n_offline

    @property
    def bipartite(self) -> bool:
        return self.n_offline > 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise MalformedLine(f"unknown mode {self.mode!r}")
        if self.n_online < 0 or self.n_offline < 0:
            raise MalformedLine("vertex counts must be non-negative")
        if self.delta < 1:
            raise MalformedLine("delta must be at least 1")
        if self.mode == MODE_BATCH:
            if self.batch_size < 1:
                raise MalformedLine("batch mode needs batch_size >= 1")
            if self.batch_size > self.delta:
                raise MalformedLine("batch_size cannot exceed delta")
        elif self.batch_size != 0:
            raise MalformedLine("batch_size must be 0 outside batch mode")
        if self.mode in (MODE_VERTEX_ONE_SIDED, MODE_BATCH) and self.n_offline == 0:
            raise MalformedLine(f"{self.mode} streams are bipartite; n_offline must be positive")

    def to_line(self) -> str:
        return (
            f"H {self.n_online} {self.n_offline} {self.delta} "
            f"{self.mode} {self.batch_size} {self.seed}"
        )


def parse_header(line: str) -> StreamHeader:
    parts = line.split()
    if len(parts) != 7 or parts[0] != "H":
        raise MalformedLine(f"bad header line: {line!r}")
    try:
        n_online, n_offline, delta = int(parts[1]), int(parts[2]), int(parts[3])
        batch_size, seed = int(parts[5]), int(parts[6])
    except ValueError as exc:
        raise MalformedLine(f"non-integer field in header: {line!r}") from exc
    header = StreamHeader(n_online, n_offline, delta, parts[4], batch_size, seed)
    header.validate()
    return header


def parse_stream(lines: Iterable[str]) -> tuple[StreamHeader, Iterator[StreamEvent]]:
    """Read the header eagerly, then yield validated events lazily.

    `lines` may be an open file, a list, or any iterable of text lines.
    An error raises at its exact line, once the events before it are out.
    """
    it = iter(lines)
    header = None
    for raw in it:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = parse_header(line)
        break
    if header is None:
        raise MalformedLine("empty stream: no header line")
    return header, _events(header, it)


def _events(header: StreamHeader, it: Iterator[str]) -> Iterator[StreamEvent]:
    degrees: Counter[int] = Counter()  # by id: as many entries as the stream names ids
    if header.mode != MODE_EDGE:
        yield from _line_events(header, it, 1, degrees)
        return
    lineno, error = 1, None  # the header's line
    while error is None:
        lines: list[str] = []
        try:  # a read or decode error is raised once the lines before it are out
            lines += islice(it, BLOCK_LINES)
        except (OSError, ValueError) as exc:
            error = exc
        if not lines:
            break
        us, vs = _edge_block(lines, header, degrees)
        try:  # the rest line by line: the edges before a bad line, then its error
            for u, v in _line_events(header, lines[len(us):], lineno + len(us), degrees):
                us.append(u)
                vs.append(v)
        except StreamColorError as exc:
            error = exc
        lineno += len(lines)
        if us:
            yield EdgeBlock(us, vs)
    if error is not None:
        raise error


def _edge_block(lines: list[str], header: StreamHeader, degrees: Counter[int]):
    """The block's edges, checked and counted, or none when some line needs
    the per-line parser: one that is not a plain edge, or passes delta."""
    text = "".join(lines)
    tokens = text.split()
    if len(tokens) != 3 * len(lines) or not _EDGE_LINES.fullmatch(text):
        return [], []
    us, vs = list(map(int, tokens[1::3])), list(map(int, tokens[2::3]))
    if max(max(us), max(vs)) >= header.n_total or any(map(eq, us, vs)):
        return [], []
    degrees.update(us)
    degrees.update(vs)
    get = degrees.get
    if max(max(map(get, us)), max(map(get, vs))) > header.delta:
        degrees.subtract(us)  # the per-line parser finds the breach
        degrees.subtract(vs)
        return [], []
    return us, vs


def _line_events(header: StreamHeader, lines: Iterable[str], lineno: int, degrees: Counter[int]):
    """Events line by line, after line `lineno`: an edge as a `(u, v)` pair."""
    delta = header.delta
    mode = header.mode
    n = header.n_total
    for raw in lines:
        lineno += 1
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]

        if kind == "e":
            if mode != MODE_EDGE:
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
            du = degrees[u] + 1
            dv = degrees[v] + 1
            if du > delta or dv > delta:
                who = u if du > delta else v
                raise DegreeExceeded(f"line {lineno}: vertex {who} passes delta={delta}")
            degrees[u] = du
            degrees[v] = dv
            yield u, v

        elif kind == "V":
            if mode not in (MODE_VERTEX_ONE_SIDED, MODE_VERTEX_TWO_SIDED):
                raise ModeMismatch(f"line {lineno}: vertex event in {mode} stream")
            yield _arrival(parts, lineno, n, delta, degrees, mode)

        elif kind == "B":
            if mode != MODE_BATCH:
                raise ModeMismatch(f"line {lineno}: batch event in {mode} stream")
            if len(parts) - 2 != header.batch_size:
                raise MalformedLine(
                    f"line {lineno}: batch has {len(parts) - 2} edges, "
                    f"declared batch_size is {header.batch_size}"
                )
            yield _arrival(parts, lineno, n, delta, degrees, mode)

        elif kind == "H":
            raise MalformedLine(f"line {lineno}: second header line")
        elif kind[0] != "#":  # a first token starting with '#' marks a comment
            raise MalformedLine(f"line {lineno}: unknown record {kind!r}")


def _arrival(parts, lineno, n, delta, degrees, mode):
    try:
        u = int(parts[1])
        neighbors = tuple(map(int, parts[2:]))
    except (ValueError, IndexError) as exc:
        raise MalformedLine(f"line {lineno}: bad vertex arrival") from exc
    top = max(neighbors, default=u)
    if not 0 <= u < n or top >= n or (neighbors and min(neighbors) < 0):
        raise MalformedLine(f"line {lineno}: vertex id outside [0, {n})")
    if u in neighbors:
        raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
    if len(set(neighbors)) != len(neighbors):
        raise DuplicateEdge(f"line {lineno}: repeated neighbor in one arrival")
    # `degrees` has an entry for every id named so far: in a vertex mode an
    # id arrives once, and in two-sided mode only after its neighbors
    if mode != MODE_BATCH:
        if u in degrees:
            raise ModeMismatch(f"line {lineno}: vertex {u} already appeared; it arrives once")
        if mode == MODE_VERTEX_TWO_SIDED and not all(map(degrees.__contains__, neighbors)):
            v = next(v for v in neighbors if v not in degrees)
            raise ModeMismatch(f"line {lineno}: neighbor {v} of {u} has not arrived yet")
    du = degrees[u] + len(neighbors)
    if du > delta:
        raise DegreeExceeded(f"line {lineno}: vertex {u} passes delta={delta}")
    degrees[u] = du
    degrees.update(neighbors)
    if max(map(degrees.get, neighbors), default=0) > delta:
        v = next(v for v in neighbors if degrees[v] > delta)
        raise DegreeExceeded(f"line {lineno}: vertex {v} passes delta={delta}")
    return VertexArrival(u, neighbors)


def event_edges(event: StreamEvent) -> Iterable[tuple[int, int]]:
    """The event's edges, in stream order."""
    if type(event) is EdgeBlock:
        return zip(event.us, event.vs)
    return ((event.u, v) for v in event.neighbors)


class AssignmentWriter:
    """Streams `c` lines to a sink, then the `T` trailer."""

    __slots__ = ("sink", "count")

    def __init__(self, sink: TextIO):
        self.sink = sink
        self.count = 0

    def emit(self, u: int, v: int, color: int) -> None:
        """Write one `c` record.

        The sink may buffer: a record reaches the file when the sink flushes
        or closes, and `streamcolor run` closes its output file on every exit
        path, so an aborted run still leaves every line it emitted.
        """
        self.count += 1
        try:
            self.sink.write(f"c {u} {v} {color}\n")
        except (OSError, ValueError) as exc:  # a full device, a closed pipe or sink
            raise IoFailure(f"cannot write output: {exc}") from exc

    def trailer(self, colors_used: int, peak_words: int) -> None:
        """Write `T colors_used peak_words` and flush the sink; the run
        counts its own colors."""
        try:
            self.sink.write(f"T {colors_used} {peak_words}\n")
            self.sink.flush()
        except (OSError, ValueError) as exc:
            raise IoFailure(f"cannot write output: {exc}") from exc


def parse_output(lines: Iterable[str]) -> tuple[list[Assignment], tuple[int, int] | None]:
    """Read an output file: the assignments plus the trailer, if present."""
    assignments: list[Assignment] = []
    trailer: tuple[int, int] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) != 4:
                raise MalformedLine(f"output line {lineno}: bad assignment record")
            try:
                u, v, color = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise MalformedLine(f"output line {lineno}: non-integer field") from exc
            if color < 0:
                raise MalformedLine(f"output line {lineno}: negative color")
            assignments.append((u, v, color))
        elif parts[0] == "T":
            if len(parts) != 3:
                raise MalformedLine(f"output line {lineno}: bad trailer")
            try:
                trailer = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise MalformedLine(f"output line {lineno}: non-integer field in trailer") from exc
        else:
            raise MalformedLine(f"output line {lineno}: unknown record {parts[0]!r}")
    return assignments, trailer
