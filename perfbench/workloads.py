"""The benchmark's four workloads: input generation, execution and checks.

A workload is a fixed design of cells (set x size class x operation kind);
a cell pins what an operation costs.  Its generator turns a seeded
``random.Random`` into PASSES passes, each holding one fresh operation per
cell (plain tuples, so the inputs can be digested), plus one warm-up
operation.  Fresh inputs on every pass keep repeats from hitting any cache,
while the cells keep the mix of costs the same from seed to seed.  Library
calls go through ``env.api`` attribute lookups at call time, which is what
lets the traced run swap in timing wrappers.

Checks run off the clock after each pass and compare against
``reference.RefSet``, which shares no code with repfn, or, for the CLI,
against the in-process library result.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable

from reference import RefSet

# Anchored tail sets (i0 = 0): seed boundaries, period a, ratio k.  "X^c" names
# the complement of X.
SEEDS = {
    "S1": ((4, 5, 7), 3, 2),
    "dyadic": ((1,), 1, 2),
    "a5k3": ((5, 6, 8, 11, 13), 5, 3),
    "a3k3": ((4, 6, 10), 3, 3),
    "a1k3": ((2,), 1, 3),
}
WEIGHTS = ((1, 1), (1, 2), (1, 3), (2, 3), (3, 5))
VARIANTS = ("R1", "R2", "R3")


def set_doc(name: str) -> dict:
    seed, a, k = SEEDS[name.removesuffix("^c")]
    return {
        "boundaries": list(seed),
        "leading_gap": not name.endswith("^c"),
        "tail": {"a": a, "k": k, "i0": 0},
    }


def all_set_names() -> list[str]:
    return [x for name in SEEDS for x in (name, name + "^c")]


class Env:
    """Library handle, the sets in both models, and a scratch directory."""

    def __init__(self, api, root: Path, out_dir: Path) -> None:
        self.api = api
        self.root = root
        docs = {name: set_doc(name) for name in all_set_names()}
        self.sets = {name: api.BlockSet.from_doc(doc) for name, doc in docs.items()}
        self.refs = {name: RefSet(doc) for name, doc in docs.items()}
        self.set_files = {}
        set_dir = out_dir / "sets"
        set_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            path = set_dir / f"{name.replace('^', '_')}.json"
            path.write_text(json.dumps(doc))
            self.set_files[name] = str(path.relative_to(root))
        self.child_env = {**os.environ, "PYTHONPATH": str(root / "src")}


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _digits(rng, d: int) -> int:
    return rng.randrange(10 ** (d - 1), 10**d)


PASSES = 16  # more than a run at --seconds 20 completes; the loop cycles past them


# ---------------------------------------------------------------------------
# bign_count

BIGN_WHY = (
    "Point counts at 20-90 digit n: the O(B^2) block-pair loop of "
    "count_weighted does nearly all the work while the witness and experiment "
    "layers stay idle."
)
BIGN_DIGITS = (20, 28, 36, 43, 51, 59, 67, 74, 82, 90)


def gen_bign(rng):
    """Cells: 10 sets x 10 digit counts; one cell per set counts R1/R2/R3."""
    passes = []
    for _ in range(PASSES):
        row = []
        for i, name in enumerate(all_set_names()):
            for j, digits in enumerate(BIGN_DIGITS):
                n = _digits(rng, digits)
                if (i + j) % 10 == 0:
                    row.append(("count_classic", name, n, rng.choice(VARIANTS)))
                else:
                    w1, w2 = rng.choice(WEIGHTS)
                    row.append(("count_weighted", name, n, w1, w2))
        passes.append(row)
    return passes, ("count_weighted", "S1", _digits(rng, 40), 1, 2)


def run_count_weighted(env, op):
    _, name, n, w1, w2 = op
    return env.api.count_weighted(env.sets[name], n, (w1, w2))


def check_count_weighted(env, op, result):
    _, name, n, w1, w2 = op
    want = env.refs[name].count(n, (w1, w2))
    return None if result == want else f"count {result} != reference {want}"


def run_count_classic(env, op):
    _, name, n, variant = op
    return env.api.count_classic(env.sets[name], n, variant)


def check_count_classic(env, op, result):
    _, name, n, variant = op
    want = env.refs[name].classic(n, variant)
    return None if result == want else f"{variant} {result} != reference {want}"


# ---------------------------------------------------------------------------
# window_sweep

WINDOW_WHY = (
    "Many small counts (B <= ~60) in verify_equality, scan_ratio and "
    "search_seeds: per-call overhead and two-sided counting dominate, not the "
    "huge-n kernel."
)
WINDOW_EXPONENTS = tuple(2.5 + 0.35 * (i + 0.5) for i in range(10))  # log10 of n_lo
WINDOW_WIDTH = 100
SCAN_STRIDE = 2
SEED_GRIDS = ((2, 3, 3, 3, 400), (2, 3, 4, 4, 300), (2, 5, 5, 6, 200), (3, 1, 8, 0, 500))


def _jitter(rng, x: float) -> int:
    return round(x * rng.uniform(0.97, 1.03))


def gen_window(rng):
    """Cells: 5 sets x 10 window starts x (verify, scan), plus 4 seed grids."""
    passes = []
    for _ in range(PASSES):
        row = []
        for base in SEEDS:
            ref = RefSet(set_doc(base))
            k, g = ref.k, ref.select_g()
            lattice_lo = (k**g + 1) * ref.stored[0]
            for e in WINDOW_EXPONENTS:
                name = rng.choice((base, base + "^c"))  # same work either way
                n_lo = _jitter(rng, 10**e)
                row.append(("verify_equality", name, k, n_lo, n_lo + WINDOW_WIDTH - 1))
                n_lo = max(lattice_lo, _jitter(rng, 10**e))
                row.append(("scan_ratio", name, k, n_lo, n_lo + WINDOW_WIDTH - 1, g))
        for k, a, t0_max, width_max, horizon in SEED_GRIDS:
            row.append(("search_seeds", k, a, t0_max, width_max, _jitter(rng, horizon)))
        passes.append(row)
    n_lo = rng.randrange(10**4, 2 * 10**4)
    return passes, ("verify_equality", "S1", 2, n_lo, n_lo + WINDOW_WIDTH - 1)


def run_verify_equality(env, op):
    _, name, k, n_lo, n_hi = op
    return env.api.verify_equality(env.sets[name], k, n_lo, n_hi)


def _equality_summary(ref: RefSet, k: int, n_lo: int, n_hi: int):
    comp = ref.complement()
    equal, first = 0, None
    for n in range(n_lo, n_hi + 1):
        if ref.count(n, (1, k)) == comp.count(n, (1, k)):
            equal += 1
        elif first is None:
            first = n
    return equal, first


def _check_equality_report(rep, ref, k, n_lo, n_hi):
    got = (rep.k, rep.n_lo, rep.n_hi, rep.equal_count, rep.first_violation)
    want = (k, n_lo, n_hi, *_equality_summary(ref, k, n_lo, n_hi))
    return None if got == want else f"equality report {got} != reference {want}"


def check_verify_equality(env, op, result):
    _, name, k, n_lo, n_hi = op
    return _check_equality_report(result, env.refs[name], k, n_lo, n_hi)


def run_scan_ratio(env, op):
    _, name, k, n_lo, n_hi, g = op
    return env.api.scan_ratio(env.sets[name], k, n_lo, n_hi, g, SCAN_STRIDE)


def check_scan_ratio(env, op, result):
    _, name, k, n_lo, n_hi, g = op
    ref = env.refs[name]
    comp = ref.complement()
    points = []
    for n in range(n_lo, n_hi + 1, SCAN_STRIDE):
        ra, rc = ref.count(n, (1, k)), comp.count(n, (1, k))
        side = ra if ref.containing_side_is_set(n, g) else rc
        points.append((n, ra, rc, Fraction(side, n)))
    got = [(p.n, p.r_set, p.r_comp, p.ratio) for p in result.points]
    if got != points:
        return "scan points differ from reference"
    window_lo = -(-(n_lo + n_hi) // 2)
    tail = [p[3] for p in points if p[0] >= window_lo]
    want = (
        window_lo,
        min(tail) if tail else None,
        Fraction(1, k**5 * k * ref.stored[0] * (k**g + 2)),
        Fraction(1, k),
    )
    got = (result.window_lo, result.min_ratio, result.theoretical_floor, result.trivial_ceiling)
    return None if got == want else f"scan summary {got} != reference {want}"


def run_search_seeds(env, op):
    _, k, a, t0_max, width_max, horizon = op
    return env.api.search_seeds(k, a, t0_max, width_max, horizon)


def check_search_seeds(env, op, result):
    _, k, a, t0_max, width_max, horizon = op
    want_seeds = sorted(
        seed
        for seed in _admissible_seeds(a, t0_max, width_max)
        if k * seed[0] > seed[-1]
    )
    if sorted(seed for seed, _ in result) != want_seeds:
        return "search_seeds tried the wrong seeds"
    for seed, rep in result:
        ref = RefSet({"boundaries": list(seed), "tail": {"a": a, "k": k}})
        err = _check_equality_report(rep, ref, k, int(ref.t(a + 2)), horizon)
        if err:
            return f"seed {seed}: {err}"
    ranks = [
        (0, 0, seed) if rep.first_violation is None else (1, -rep.first_violation, seed)
        for seed, rep in result
    ]
    return None if ranks == sorted(ranks) else "search_seeds ranking out of order"


def _admissible_seeds(a, t0_max, width_max):
    def extend(prefix, left):
        if left == 0:
            yield tuple(prefix)
            return
        for t in range(prefix[-1] + 1, prefix[0] + width_max + 1):
            yield from extend(prefix + [t], left - 1)

    for t0 in range(1, t0_max + 1):
        yield from extend([t0], a - 1)


# ---------------------------------------------------------------------------
# witness_cert

WITNESS_WHY = (
    "enumerate_witnesses plus a 16-pair streamed peek, families from empty to "
    "~3e5 pairs: per-pair validation dominates big families, fixed costs small "
    "ones."
)
WITNESS_SETS = ("S1", "dyadic", "a5k3", "a3k3", "a1k3", "S1^c", "a3k3^c")
# Family sizes per cell: empty (scale < 5), then about 3 * 10^j pairs.  The cell
# fixes the size class, zone and seed position; the seed draws m inside the
# zone and the remainder r, which move the size by at most 1/16.
WITNESS_SIZES = (None, 3, 30, 300, 3e3, 3e4, 3e5)
ZONES = ("I", "II", "I", "III")
# Lattice-edge inputs on S1 (g = 7): m on a cell's left edge (case II) and one
# whose narrow seed gap shrinks the edge family.
WITNESS_EDGES = (("witness", "S1", 129 * 7168, 7), ("witness", "S1", 129 * 5120, 7))
WITNESS_PEEK = 16


def _witness_n(rng, ref: RefSet, g: int, size, cell: int) -> int:
    """An n whose witness family has about `size` pairs (None: scale < 5)."""
    k, a = ref.k, ref.a
    ell = cell % a
    zone = "any" if size is None else ZONES[cell % len(ZONES)]
    # Case I families have k^(s-5) - r pairs; edge families c*k^(s-5) - r with
    # c = k^4 * (gap between the two lattice boundaries the case uses) - 1.
    c = Fraction(1)
    if zone in ("II", "III"):
        t = ref.t
        gap = t(ell - 1) - t(ell - 2) if zone == "II" else t(ell + 3) - t(ell + 2)
        c = k**4 * gap - 1
    if size is None:
        s = cell % 5
    else:
        s = max(5, 5 + round(math.log(size / c) / math.log(k)))
    lo, hi = k**s * int(ref.t(ell)), k**s * int(ref.t(ell + 1))
    margin = k ** (s - 4) if s >= 4 else 1
    if zone == "II":
        m = rng.randrange(lo, lo + margin)
    elif zone == "III":
        m = rng.randrange(hi - margin, hi)
    elif zone == "I":
        m = rng.randrange(lo + margin, hi - margin)
    else:
        m = rng.randrange(lo, hi)
    r_max = k**g if size is None else min(k**g, int(c * k ** (s - 5)) // 16)
    return (k**g + 1) * m + rng.randint(0, r_max)


def gen_witness(rng):
    """Cells: 7 sets x 7 sizes x 2 zone/position variants, plus the 2 edges."""
    passes = []
    for _ in range(PASSES):
        row = list(WITNESS_EDGES)
        for i, name in enumerate(WITNESS_SETS):
            ref = RefSet(set_doc(name))
            g = ref.select_g()
            for j, size in enumerate(WITNESS_SIZES):
                for v in (0, 1):
                    row.append(("witness", name, _witness_n(rng, ref, g, size, i + j + 3 * v), g))
        passes.append(row)
    return passes, ("witness", "S1", 10**8, 7)


def run_witness(env, op):
    _, name, n, g = op
    s = env.sets[name]
    report = env.api.enumerate_witnesses(s, n, g)
    pairs = list(islice(env.api.iter_witness_pairs(s, n, g), WITNESS_PEEK))
    return report, pairs


def check_witness(env, op, result):
    _, name, n, g = op
    report, pairs = result
    ref = env.refs[name]
    k = ref.k
    d = report.decomposition
    if (d.n, d.g) != (n, g) or (k**g + 1) * d.m + d.r != n or not 0 <= d.r <= k**g:
        return f"bad decomposition {d}"
    on_set = ref.containing_side_is_set(n, g)
    if report.side != ("set" if on_set else "complement"):
        return f"side {report.side} disagrees with reference membership of m"
    if report.pairs_checked != report.q_count:
        return f"pairs_checked {report.pairs_checked} != q_count {report.q_count}"
    if len(pairs) != min(WITNESS_PEEK, report.q_count):
        return f"streamed {len(pairs)} pairs for a family of {report.q_count}"
    side = ref if on_set else ref.complement()
    for a1, a2 in pairs:
        if a1 + k * a2 != n:
            return f"pair ({a1}, {a2}) breaks the sum identity"
        if not (side.member(a1) and side.member(a2)):
            return f"pair ({a1}, {a2}) leaves the containing side"
    if len(set(pairs)) != len(pairs):
        return "streamed pairs repeat"
    return None


# ---------------------------------------------------------------------------
# cli_oneshot

CLI_WHY = (
    "One python -m repfn.cli child per op over ten subcommands, ~10% domain "
    "errors: interpreter start, import, argparse and JSON output dominate."
)
CLI_SUBCOMMANDS = (
    "eval", "classic", "decompose", "select-g", "witnesses",
    "verify-psi", "scan", "intersect", "gen", "detect",
)
CLI_ERRORS = ("bad-json", "negative-n", "below-lattice", "missing-file")
CLI_CELLS = 55
CLI_TIMEOUT_S = 60


def _cli_params(rng, sub: str) -> dict:
    name = rng.choice(all_set_names())
    ref = RefSet(set_doc(name))
    k, g = ref.k, ref.select_g()
    lattice_lo = (k**g + 1) * ref.stored[0]
    p = {"set": name, "file": rng.random() < 0.5}
    if sub == "eval":
        p.update(n=int(_log_uniform(rng, 1e3, 1e12)), w=rng.choice(WEIGHTS))
    elif sub == "classic":
        p.update(n=int(_log_uniform(rng, 1e3, 1e12)), variant=rng.choice(VARIANTS))
    elif sub == "decompose":
        p.update(n=int(_log_uniform(rng, lattice_lo, 1e15)), g=g)
    elif sub == "witnesses":
        p.update(n=int(_log_uniform(rng, 1e6, 1e7)), g=g)
    elif sub == "verify-psi":
        n_lo = rng.randint(2000, 4000)
        p.update(k=k, n_lo=n_lo, n_hi=n_lo + 29)
    elif sub == "scan":
        n_lo = rng.randint(lattice_lo, 2 * lattice_lo)
        p.update(k=k, n_lo=n_lo, n_hi=n_lo + 29, g=g)
    elif sub == "intersect":
        p = {"k": rng.randint(2, 64), "l": rng.randint(2, 64)}
    elif sub == "gen":
        seed, a, k = SEEDS[name.removesuffix("^c")]
        p = {"seed": list(seed), "a": a, "k": k, "limit": int(_log_uniform(rng, 1e3, 1e30))}
    elif sub == "detect":
        bs = ref.edges(int(_log_uniform(rng, 100, 1e12)))
        p = {"boundaries": bs, "k": rng.choice((2, 3, 4))}
    return p


def gen_cli(rng):
    """Cells: 5 of each subcommand and 5 domain errors (fresh args per pass)."""
    subs = (*CLI_SUBCOMMANDS, "error")
    passes = []
    for _ in range(PASSES):
        row = []
        for c in range(CLI_CELLS):
            sub = subs[c % len(subs)]
            if sub == "error":
                p = _cli_params(rng, "decompose")
                p["kind"] = CLI_ERRORS[c // len(subs) % len(CLI_ERRORS)]
                if p["kind"] == "below-lattice":  # quotient by k^g + 1 below t_0
                    ref = RefSet(set_doc(p["set"]))
                    p["n"] = rng.randrange((ref.k ** p["g"] + 1) * ref.stored[0])
                row.append(("cli", "error", p))
            else:
                row.append(("cli", sub, _cli_params(rng, sub)))
        passes.append(row)
    return passes, ("cli", "eval", {"set": "S1", "file": False, "n": 10**6, "w": (1, 2)})


def cli_argv(env, sub: str, p: dict) -> list[str]:
    """Arguments after `python -m repfn.cli` for one operation."""

    def set_arg(name):
        return env.set_files[name] if p["file"] else json.dumps(set_doc(name))

    if sub == "error":
        kind = p["kind"]
        if kind == "bad-json":
            return ["eval", "--set", "{not json", "--n", str(p["n"]), "--k", "2"]
        if kind == "negative-n":
            return ["eval", "--set", set_arg(p["set"]), "--n=-" + str(p["n"]), "--k", "2"]
        if kind == "below-lattice":
            return ["decompose", "--set", set_arg(p["set"]), "--n", str(p["n"]), "--g", str(p["g"])]
        return ["select-g", "--set", "perfbench-missing-set.json"]
    json_out = ["--format", "json"]
    if sub == "eval":
        w1, w2 = p["w"]
        return ["eval", "--set", set_arg(p["set"]), "--n", str(p["n"]),
                "--w1", str(w1), "--w2", str(w2), *json_out]
    if sub == "classic":
        return ["classic", "--set", set_arg(p["set"]), "--n", str(p["n"]),
                "--variant", p["variant"], *json_out]
    if sub in ("decompose", "witnesses"):
        return [sub, "--set", set_arg(p["set"]), "--n", str(p["n"]), "--g", str(p["g"]), *json_out]
    if sub == "select-g":
        return ["select-g", "--set", set_arg(p["set"]), *json_out]
    if sub == "verify-psi":
        return ["verify-psi", "--set", set_arg(p["set"]), "--k", str(p["k"]),
                "--n-lo", str(p["n_lo"]), "--n-hi", str(p["n_hi"]), *json_out]
    if sub == "scan":
        return ["scan", "--set", set_arg(p["set"]), "--k", str(p["k"]),
                "--n-lo", str(p["n_lo"]), "--n-hi", str(p["n_hi"]), "--g", str(p["g"]),
                "--stride", str(SCAN_STRIDE), "--format", "csv"]
    if sub == "intersect":
        return ["intersect", "--k", str(p["k"]), "--l", str(p["l"]), *json_out]
    if sub == "gen":
        return ["gen", "--seed", ",".join(map(str, p["seed"])), "--a", str(p["a"]),
                "--k", str(p["k"]), "--limit", str(p["limit"])]
    return ["detect", "--boundaries", ",".join(map(str, p["boundaries"])),
            "--k", str(p["k"]), *json_out]


def run_cli(env, op):
    _, sub, p = op
    proc = subprocess.run(
        [sys.executable, "-m", "repfn.cli", *cli_argv(env, sub, p)],
        cwd=env.root,
        env=env.child_env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_expected(env, sub: str, p: dict):
    """What the subcommand should print, computed with the library in-process."""
    api = env.api
    s = env.sets.get(p.get("set"))
    if sub == "eval":
        n, w = p["n"], tuple(p["w"])
        return {"n": str(n), "w1": w[0], "w2": w[1], "count": str(api.count_weighted(s, n, w))}
    if sub == "classic":
        n, v = p["n"], p["variant"]
        return {"n": str(n), "variant": v, "count": str(api.count_classic(s, n, v))}
    if sub == "decompose":
        d = api.decompose(s, p["n"], p["g"])
        return {"n": str(d.n), "m": str(d.m), "r": str(d.r), "s": d.s, "ell": d.ell, "g": d.g}
    if sub == "select-g":
        sel = api.select_g(s)
        return {"T": str(sel.T), "g": sel.g}
    if sub == "witnesses":
        return api.enumerate_witnesses(s, p["n"], p["g"]).to_doc()
    if sub == "verify-psi":
        return api.verify_equality(s, p["k"], p["n_lo"], p["n_hi"]).to_doc()
    if sub == "scan":
        scan = api.scan_ratio(s, p["k"], p["n_lo"], p["n_hi"], p["g"], SCAN_STRIDE)
        buf = io.StringIO()
        api.scan_to_csv(scan, buf)
        return list(csv.reader(io.StringIO(buf.getvalue())))
    if sub == "intersect":
        prof = api.multiplicative_profile(p["k"], p["l"])
        return {"nonempty": api.intersection_nonempty(p["k"], p["l"]),
                "dependent": prof.dependent, "d": prof.d, "p": prof.p, "q": prof.q}
    if sub == "gen":
        return api.generate_from_seed(p["seed"], p["a"], p["k"], p["limit"]).to_doc()
    tail = api.detect_tail(p["boundaries"], p["k"])
    return {"tail": None if tail is None else {"a": tail.a, "k": tail.k, "i0": tail.i0}}


def check_cli(env, op, result):
    _, sub, p = op
    code, out, err = result
    if sub == "error":
        if code == 1 and not out and err.startswith("error: "):
            return None
        return f"domain error {p['kind']} gave exit {code}, stderr {err[:80]!r}"
    if code != 0 or err:
        return f"{sub} exit {code}, stderr {err[:80]!r}"
    try:
        got = list(csv.reader(io.StringIO(out))) if sub == "scan" else json.loads(out)
    except json.JSONDecodeError as exc:
        return f"{sub} printed invalid JSON: {exc}"
    want = cli_expected(env, sub, p)
    return None if got == want else f"{sub} output differs from the library result"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable
    probe: str = "loop"  # run.py's speed probe: "loop" in process, "child" interpreter start


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bign_count", BIGN_WHY, gen_bign),
        Workload("window_sweep", WINDOW_WHY, gen_window),
        Workload("witness_cert", WITNESS_WHY, gen_witness),
        Workload("cli_oneshot", CLI_WHY, gen_cli, probe="child"),
    )
}

# Operation kind -> (execute, check).
KINDS = {
    "count_weighted": (run_count_weighted, check_count_weighted),
    "count_classic": (run_count_classic, check_count_classic),
    "verify_equality": (run_verify_equality, check_verify_equality),
    "scan_ratio": (run_scan_ratio, check_scan_ratio),
    "search_seeds": (run_search_seeds, check_search_seeds),
    "witness": (run_witness, check_witness),
    "cli": (run_cli, check_cli),
}


def execute(env, op):
    return KINDS[op[0]][0](env, op)


def check(env, op, result):
    """None when the result is right, else a one-line reason."""
    return KINDS[op[0]][1](env, op, result)


def check_with_oracle(env, op, rng):
    """Recount one point of a window op with repfn's O(n) oracle, both sides."""
    if op[0] not in ("verify_equality", "scan_ratio"):
        return None
    _, name, k, n_lo, n_hi = op[:5]
    n = rng.randint(n_lo, n_hi)
    s, ref = env.sets[name], env.refs[name]
    for side, side_ref in ((s, ref), (s.complement(), ref.complement())):
        got, want = env.api.count_weighted_oracle(side, n, (1, k)), side_ref.count(n, (1, k))
        if got != want:
            return f"oracle {got} != reference {want} at n={n}"
    return None


def corrupt(op, result):
    """A deliberately wrong version of a correct result, for the self-tests."""
    kind = op[0]
    if kind in ("count_weighted", "count_classic"):
        return result + 1
    if kind == "verify_equality":
        return dataclasses.replace(result, equal_count=result.equal_count + 1)
    if kind == "scan_ratio":
        p = result.points[0]
        bad = dataclasses.replace(p, r_set=p.r_set + 1)
        return dataclasses.replace(result, points=(bad, *result.points[1:]))
    if kind == "search_seeds":
        seed, rep = result[0]
        bad = dataclasses.replace(rep, equal_count=rep.equal_count + 1)
        return [(seed, bad), *result[1:]]
    if kind == "witness":
        report, pairs = result
        if not pairs:
            return dataclasses.replace(report, pairs_checked=report.pairs_checked + 1), pairs
        a1, a2 = pairs[0]
        return report, [(a1 + 1, a2), *pairs[1:]]
    code, out, err = result
    if code != 0:
        return 0, out, err
    digits = [i for i, ch in enumerate(out) if ch.isdigit()]
    if digits:
        i = digits[-1]
        return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :], err
    for old, new in (("false", "true"), ("true", "false"), ("null", "0")):
        if old in out:
            return code, out.replace(old, new, 1), err
    return code, out + "\n", err
