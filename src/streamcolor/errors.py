"""Exception types shared across the toolkit.

Errors split into three families that the CLI maps to distinct exit codes:
stream/input problems (the input violates its own declared parameters),
internal bound violations (a randomized guarantee failed at runtime, which
is possible but rare by design), and plain usage errors.
"""


class StreamColorError(Exception):
    """Base class for all toolkit errors."""


# --- stream parsing and validation ---

class MalformedLine(StreamColorError):
    """A line of a stream or output file does not match the format."""


class ModeMismatch(StreamColorError):
    """An event kind (or algorithm choice) is illegal for the stream mode."""


class SelfLoop(StreamColorError):
    """An edge with identical endpoints appeared in the stream."""


class DuplicateEdge(StreamColorError):
    """The same edge appeared twice (streams describe simple graphs)."""


class DegreeExceeded(StreamColorError):
    """Replaying the stream pushed some vertex past the declared max degree."""


class IoFailure(StreamColorError):
    """Writing to the output sink failed."""


# --- palette ---

class PeriodTooSmall(StreamColorError):
    """The shift period is too small to draw three distinct shifts."""


# --- matching ---

class InstanceTooLarge(StreamColorError):
    """The exhaustive matcher only accepts small instances."""


# --- streaming colorers and dispatch ---

class TooManySlots(StreamColorError):
    """An arrival brought more edges than the colorer's degree bound."""


class BatchSizeMismatch(StreamColorError):
    """A batch did not contain exactly the declared number of edges."""


class TooManyBatches(StreamColorError):
    """An online vertex produced more batches than the colorer was sized for."""


class FlushBudgetExceeded(StreamColorError):
    """More buffer flushes were requested than the color accounting allows."""


class BoundViolation(StreamColorError):
    """A randomized internal guarantee failed (low-probability event).

    Raised instead of ever emitting a potentially conflicting color.
    """


# --- offline coloring ---

class NotBipartite(StreamColorError):
    """The exact bipartite colorer was handed a graph with an odd cycle."""


# --- generators ---

class InfeasibleSpec(StreamColorError):
    """The requested stream family cannot be realized with these parameters."""
