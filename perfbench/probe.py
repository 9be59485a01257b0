"""Time a fixed mix of interpreter, Philox and GEMM work that never touches klpriv.

Prints the seconds the timed part took.  The mix follows the workloads: about
half interpreter-bound Python, a fifth Philox normal draws and the rest a GEMM
on the BLAS threads the environment gives.  Set-up (import, allocation) is not
timed.
"""

from time import perf_counter

import numpy as np

gen = np.random.Generator(np.random.Philox(7))
a = gen.standard_normal((512, 512))
b = gen.standard_normal((512, 512))
t0 = perf_counter()
acc = 0
for i in range(300_000):
    acc += i * i % 7
for _ in range(4):
    gen.standard_normal(270_000)
for _ in range(12):
    a @ b
print(perf_counter() - t0)
