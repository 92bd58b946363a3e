"""Exception types shared across the toolkit.

Errors split into families that the CLI maps to distinct exit codes:
`InputError` (the input violates its own declared parameters, or the
output cannot be written), `BoundError` (a randomized guarantee or a
sizing bound failed at runtime, which is possible but rare by design),
and the rest: infeasible requests and other internal errors.
"""


class StreamColorError(Exception):
    """Base class for all toolkit errors."""


class InputError(StreamColorError):
    """The input or the output sink is at fault: `streamcolor run` exit 3."""


class BoundError(StreamColorError):
    """A run passed one of its internal bounds: `streamcolor run` exit 4."""


# --- stream parsing and validation ---

class MalformedLine(InputError):
    """A line of a stream or output file does not match the format."""


class ModeMismatch(InputError):
    """An event kind (or algorithm choice) is illegal for the stream mode."""


class SelfLoop(InputError):
    """An edge with identical endpoints appeared in the stream."""


class DuplicateEdge(InputError):
    """The same edge appeared twice (streams describe simple graphs)."""


class DegreeExceeded(InputError):
    """Replaying the stream pushed some vertex past the declared max degree."""


class IoFailure(InputError):
    """Writing to the output sink failed."""


# --- palette ---

class PeriodTooSmall(StreamColorError):
    """The shift period is too small to draw three distinct shifts."""


# --- matching ---

class InstanceTooLarge(StreamColorError):
    """The exhaustive matcher only accepts small instances."""


# --- streaming colorers and dispatch ---

class TooManySlots(BoundError):
    """An arrival brought more edges than the colorer's degree bound."""


class TooManyBatches(BoundError):
    """An arrival named a batch band outside the colorer's block."""


class FlushBudgetExceeded(BoundError):
    """More buffer flushes were requested than the color accounting allows."""


class BoundViolation(BoundError):
    """A randomized internal guarantee failed (low-probability event).

    Raised instead of ever emitting a potentially conflicting color.
    """


# --- offline coloring ---

class NotBipartite(InputError):
    """The exact bipartite colorer was handed a graph with an odd cycle."""


# --- generators ---

class InfeasibleSpec(StreamColorError):
    """The requested stream family cannot be realized with these parameters."""
