"""streamcolor: single-pass streaming edge coloring with streamed output.

A library and CLI for coloring the edges of a graph in one pass over an
arrival stream, emitting colors as it reads, under four arrival models
(edge, one-sided vertex, two-sided vertex, batch). The core machinery
trades a constant-factor color surplus for tiny memory: randomly shifted
color proposals per offline vertex, perfect matchings of arrivals onto
proposals, random shift decompositions for edge arrivals, and recursive
random bipartization for general graphs. A word-exact space meter and an
independent output verifier make the guarantees checkable per run.
"""

from .core import OneSidedColorer, Run
from .errors import StreamColorError
from .harness import GenSpec, KoutResult, RunRequest, VerifyReport, generate, run_kout_experiment, verify
from .matching import brute_force_match, kout_trial
from .meter import SpaceMeter
from .offline import color_bipartite_exact, color_general, color_greedy
from .palette import ColorAllocator, OfflineState, draw_offline_state
from .presets import PRESETS, RunStats, build_pipeline, declared_budget, run_stream
from .stream import (
    AssignmentWriter,
    EdgeBlock,
    StreamHeader,
    VertexArrival,
    parse_output,
    parse_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentWriter",
    "ColorAllocator",
    "EdgeBlock",
    "GenSpec",
    "KoutResult",
    "OfflineState",
    "OneSidedColorer",
    "PRESETS",
    "Run",
    "RunRequest",
    "RunStats",
    "SpaceMeter",
    "StreamColorError",
    "StreamHeader",
    "VertexArrival",
    "VerifyReport",
    "brute_force_match",
    "build_pipeline",
    "color_bipartite_exact",
    "color_general",
    "color_greedy",
    "declared_budget",
    "draw_offline_state",
    "generate",
    "kout_trial",
    "parse_output",
    "parse_stream",
    "run_kout_experiment",
    "run_stream",
    "verify",
]
