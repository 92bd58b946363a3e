"""Reading the space meter: what the algorithm actually stores, in words.

Drives the one-sided colorer by hand and samples the word ledger as the
stream progresses. One word = one stored integer (a shift, a counter, a
spilled endpoint, transient matching scratch). Harness memory is never
counted, so the ledger is exactly the object the space guarantees
talk about: a handful of words per offline vertex plus whatever spilled.
"""

import random

from streamcolor import OneSidedColorer, Run

N, DELTA, SEED = 500, 16, 21

run = Run()
meter = run.meter
colorer = OneSidedColorer(DELTA, random.Random(SEED), run)

rng = random.Random(SEED + 1)
shifts = rng.sample(range(N), DELTA)
emitted = 0
for u in range(N):
    neighbors = [N + (u + sh) % N for sh in shifts]
    emitted += len(colorer.on_online_vertex(u, neighbors))
    if u in (0, 9, 99, N - 1):
        ledger = ", ".join(f"{k.split(':')[-1]}={v}" for k, v in meter.ledger.items() if v)
        print(f"after arrival {u + 1:>4}: {meter.current_words:>6} words live ({ledger})")

emitted += len(colorer.finalize())
print(f"\nedges colored: {emitted}")
print(f"peak words:    {meter.peak_words}")
print(f"per offline vertex: 3 shifts + 1 degree counter = 4 words -> "
      f"{4 * N} at saturation, plus transient matching scratch")
assert meter.consistent()
