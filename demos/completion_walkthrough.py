"""
Filling in a partial coefficient matrix
=======================================

A symmetric matrix with some entries undefined can be filled so that in
every triangle the minimum shows up at least twice, exactly when every
chordless cycle of its defined entries already attains its minimum at
least twice.  This script completes one matrix, shows where the filled
values come from, and then looks at a matrix that cannot be fixed.
"""

from zfree import PartialMatrix, complete, completable_oracle
from zfree.errors import NotCompletableError


def show(matrix):
    for (i, j), v in matrix.pairs():
        print(f"  h({i + 1},{j + 1}) = {v}")


# A path of defined entries: 1-2 at 3, 2-3 at 1, 3-4 at 5.
h = PartialMatrix(4, {(0, 1): 3, (1, 2): 1, (2, 3): 5})
print("defined entries:")
show(h)

done = complete(h)
print("completed:")
show(done)

# Each filled value is the smallest weight on the path between its
# endpoints in the maximum weight spanning forest, h(1,3) for example
# walks 1-2-3 and picks min(3, 1) = 1.
assert done.value(0, 2).raw == 1
assert done.value(0, 3).raw == 1
assert done.value(1, 3).raw == 1

# A four cycle whose smallest entry is unique cannot be completed.  The
# exhaustive oracle finds the offending cycle on its own; complete() finds
# it from the spanning forest (the entry below the minimum on its forest
# path, closed by that path) and reports it in the refusal.
bad = PartialMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 2, (0, 3): 2})
cycle = completable_oracle(bad)
print("bad cycle through points:", [v + 1 for v in cycle])
try:
    complete(bad)
except NotCompletableError as exc:
    print("complete() refuses:", exc)
