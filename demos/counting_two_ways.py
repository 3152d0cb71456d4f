"""Counting representations two ways and trusting neither alone.

r(S, n) counts ordered pairs (a1, a2) in S x S with w1*a1 + w2*a2 = n.
The closed form walks block pairs and counts lattice points in each
window; the reference loop tries every candidate a2. They must agree,
and the closed form's cost does not grow with n.
"""

from __future__ import annotations

import time

from repfn import BlockSet, TailRule, count_classic, count_weighted, count_weighted_oracle

s = BlockSet((4, 5, 7), TailRule(a=3, k=2, i0=0))

print("weights (1, 2) on the running example:")
for n in (100, 516, 10**4, 10**6):
    fast = count_weighted(s, n, (1, 2))
    slow = count_weighted_oracle(s, n, (1, 2))
    print(f"  n = {n:>8}: closed form {fast:>6}, reference {slow:>6}, agree: {fast == slow}")

print()
print("the closed form shrugs at scale:")
for n in (10**9, 10**12, 10**18, 10**100, 10**300):
    t0 = time.perf_counter()
    c = count_weighted(s, n, (1, 2))
    dt = time.perf_counter() - t0
    print(f"  n = 10^{len(str(n)) - 1}: r = {c} in {dt * 1000:.2f} ms")

print()
print("classic two-term counts on {0,1,2} at n = 2:")
small = BlockSet((0, 3))
for variant in ("R1", "R2", "R3"):
    print(f"  {variant} = {count_classic(small, 2, variant)}")
print("  (ordered pairs; unordered distinct; unordered with doubles)")

print()
print("identities R1 = 2*R2 + [n/2 in S] and R3 = R2 + [n/2 in S], spot-checked:")
ok = True
for n in range(0, 300):
    r1 = count_classic(s, n, "R1")
    r2 = count_classic(s, n, "R2")
    r3 = count_classic(s, n, "R3")
    delta = 1 if n % 2 == 0 and s.contains(n // 2) else 0
    ok = ok and r1 == 2 * r2 + delta and r3 == r2 + delta
print(f"  hold on 0..299: {ok}")

print()
print("a count can only be as large as the a2 range allows: r <= n//k + 1")
n = 5000
print(f"  n = {n}, k = 2: r = {count_weighted(s, n, (1, 2))}, ceiling = {n // 2 + 1}")
