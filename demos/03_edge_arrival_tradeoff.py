"""The color/space dial for arbitrary edge arrivals.

The buffered dispatcher takes a space knob s: it may hold n * s edges and
in exchange guarantees a palette of O(delta^1.5 / s) colors, shrinking as
s grows. The top of the range, s = ceil(sqrt(delta)), is the square-root
regime: there edge-general runs the sqrt dispatcher, exactly as edge-sqrt
does, and guarantees O(delta) outright. The `declared` column is that
worst-case guarantee, fixed before the first edge arrives; `colors` is
what this particular arrival order actually consumed (a random order is
much friendlier than the adversarial ones the guarantee covers, so the
observed count can sit far below the bound and need not move smoothly
with s). Peak words come from the instrumented meter, not process memory.
"""

from streamcolor.dispatch import ceil_sqrt
from streamcolor.harness import GenSpec, RunRequest, execute_run
from streamcolor.presets import declared_budget
from streamcolor.stream import MODE_EDGE, StreamHeader

N, DELTA, SEED = 256, 64, 3
K = ceil_sqrt(DELTA)

print(f"bipartite stream: n = {N} per side, delta = {DELTA}, edges = {N * DELTA}")
print(f"{'algorithm':>12} {'s':>3} {'colors':>7} {'declared':>9} {'peak words':>11}")

for s in (1, 2, 4, K):
    row = execute_run(
        RunRequest(
            "edge-general",
            GenSpec("regular-bipartite", N, DELTA, "edge", seed=SEED),
            s=s,
            force_stream=True,
        )
    )
    assert row["proper"]
    print(f"{'edge-general':>12} {s:>3} {row['colors_used']:>7} "
          f"{row['budget']:>9} {row['peak_words']:>11}")

# the s = K row is the square-root regime: edge-sqrt declares the same budget
assert row["budget"] == declared_budget(
    StreamHeader(N, N, DELTA, MODE_EDGE, 0, SEED), "edge-sqrt", force_stream=True
)

print(f"\nreference points: delta = {DELTA}, 20*delta = {20 * DELTA}, "
      f"delta^1.5 = {int(DELTA ** 1.5)}")
print("below the top, the guarantee (the declared column) falls as the buffer grows")
print("while peak words rise; that is the whole trade. At s = ceil(sqrt(delta)) the sqrt")
print("dispatcher takes over, as edge-sqrt does, and declares O(delta)")
