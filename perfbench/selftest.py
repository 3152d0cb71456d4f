"""Self-tests of the benchmark's own checking code.

Two properties: the reference counter agrees with repfn's O(n) oracle
``count_weighted_oracle`` (and membership with ``BlockSet.contains``) on
random finite and tail sets at small n, and every check rejects a
deliberately corrupted result.  ``run.py`` runs them before each measurement;
standalone, from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random

from reference import RefSet
from workloads import WEIGHTS, check, corrupt, execute

EXTRA_WEIGHTS = ((2, 4), (3, 3), (4, 6))


def random_doc(rng: random.Random) -> dict:
    gap = rng.random() < 0.5
    if rng.random() < 0.3:
        cuts = sorted(rng.sample(range(600), 2 * rng.randint(0, 6)))
        return {"boundaries": cuts, "tail": None, "leading_gap": gap}
    a, k, i0 = rng.choice((1, 3, 5)), rng.choice((2, 3)), rng.randint(0, 2)
    t0 = rng.randint(21, 60)
    seed = [t0, *sorted(rng.sample(range(t0 + 1, k * t0), a - 1))]
    prefix = sorted(rng.sample(range(20), i0))
    return {"boundaries": prefix + seed, "tail": {"a": a, "k": k, "i0": i0}, "leading_gap": gap}


def reference_matches_oracle(api, rng: random.Random, cases: int) -> list[str]:
    errors = []
    for _ in range(cases):
        doc = random_doc(rng)
        s, ref = api.BlockSet.from_doc(doc), RefSet(doc)
        n = rng.randint(0, 1500)
        w = rng.choice(WEIGHTS + EXTRA_WEIGHTS)
        got, want = ref.count(n, w), api.count_weighted_oracle(s, n, w)
        if got != want:
            errors.append(f"reference count {got} != oracle {want} for {doc} n={n} w={w}")
        x = rng.randint(0, 2000)
        if ref.member(x) != s.contains(x):
            errors.append(f"reference membership of {x} disagrees for {doc}")
    return errors


def corruption_caught(env, ops) -> tuple[int, list[str]]:
    """Run one op of each kind; its check must pass, and fail once corrupted."""
    samples = {}
    for op in ops:
        samples.setdefault((op[0], op[1] == "error"), op)
    errors = []
    for op in samples.values():
        result = execute(env, op)
        if (reason := check(env, op, result)) is not None:
            errors.append(f"{op[:2]}: correct result rejected: {reason}")
        elif check(env, op, corrupt(op, result)) is None:
            errors.append(f"{op[:2]}: corrupted result passed the check")
    return len(samples), errors


def run(api, env, ops, seed: int, cases: int = 200) -> tuple[str, list[str]]:
    errors = reference_matches_oracle(api, random.Random(f"selftest/{seed}"), cases)
    kinds, more = corruption_caught(env, ops)
    summary = f"{cases} reference-vs-oracle cases, {kinds} corrupted results"
    return summary, errors + more


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    from run import load_repfn
    from workloads import WORKLOADS, Env

    root = Path(__file__).resolve().parent.parent
    api = load_repfn(root)
    failures = []
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for wl in WORKLOADS.values():
            passes, _ = wl.generate(random.Random(f"{wl.name}/0"))
            summary, errors = run(api, Env(api, root, Path(tmp)), passes[0], 0, cases=500)
            print(f"{wl.name}: {summary}: {'ok' if not errors else 'FAILED'}")
            failures += errors
    for line in failures:
        print(line)
    sys.exit(1 if failures else 0)
