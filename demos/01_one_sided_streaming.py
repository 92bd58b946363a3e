"""One-sided streaming in action: color a bipartite stream in one pass.

Walks through the full pipeline on a small graph: generate a stream where
every online vertex arrives with all its edges, color it while reading,
then verify the output independently. Prints the color-budget arithmetic
so you can see where the palette comes from.
"""

import io

from streamcolor import GenSpec, build_pipeline, generate, parse_stream, run_stream, verify
from streamcolor.palette import period_for

N, DELTA, SEED = 200, 12, 7

spec = GenSpec("regular-bipartite", N, DELTA, "vertex-one-sided", seed=SEED)
stream_text = generate(spec)
print(f"stream: {N} online + {N} offline vertices, degree exactly {DELTA}")
print("first lines:")
for line in stream_text.splitlines()[:3]:
    print("   ", line if len(line) < 72 else line[:69] + "...")

period = period_for(DELTA)
print(f"\nshift period P = ceil(2.72 * {DELTA}) = {period}")
print(f"streaming colors live in three bands of P: [0, {3 * period})")
print(f"spilled edges (if any) get fresh colors after that, at most {DELTA} more")
print(f"worst case total: 3P + delta = {3 * period + DELTA}")

header, events = parse_stream(io.StringIO(stream_text))
pipeline = build_pipeline(header, "one-sided")
print(f"declared budget read off the built pipeline: {pipeline.budget}")
out = io.StringIO()
stats = run_stream(pipeline, events, emit=lambda u, v, c: out.write(f"c {u} {v} {c}\n"))

print(f"\ncolors actually used: {stats.colors_used}")
print(f"spilled arrivals:     {stats.spilled_vertices} ({stats.spilled_edges} edges)")
print(f"peak algorithm state: {stats.peak_words} words "
      f"(about {stats.peak_words / N:.1f} per offline vertex)")

report = verify(io.StringIO(stream_text), io.StringIO(out.getvalue()))
print(f"\nindependent verification: proper={report.proper} complete={report.complete}")
assert report.ok
