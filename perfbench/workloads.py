"""Seeded op lists and input documents for the three benchmark workloads.

A workload is one *round*: a list of CLI requests (``Op``) whose op classes,
their counts and their order are fixed here.  The seed picks only the inputs -- rationals,
grids, weights, block layouts -- so every seed yields the same mix, and the
cost clusters that decide ``latency_p50_ms`` and ``latency_p90_ms`` keep their
ranks.  The expected exit code of every op is known by construction:

* Rota-Baxter data comes from identities, never from ``search_rb``:
  ``R = -theta * P`` for ``P`` the projection onto a sum of blocks of a block
  sum of algebras (any weight ``theta``), and, at weight 0, any ``R`` that maps
  into a zero block (the block lies in the annihilator).
* Twisted algebras are Yau twists of classical block sums by block-diagonal
  automorphisms, so they are Hom-associative and multiplicative, the
  automorphism commutes with ``R``, and the classical associativity check
  fails because a twist entry differs from 0 and 1.
* Malformed requests must exit 2.  Two of them reproduce defects that crash
  the CLI instead (``search rb --weight r/0`` raises ``ZeroDivisionError``; a
  document whose ``ops`` rows are integers raises ``TypeError``); ``Op.defect``
  names the exception so the runner can tell those known failures from new
  ones.

Documents are written into the current directory by ``build``.  The
generator writes the documents itself -- twists and matrix lifts are built
entry by entry -- and calls ``homtwist`` only to serialize two catalog
fixtures (``catalog_get``, ``to_document``), so set-up time does not move with
the speed of the constructions.  It uses only public names of ``homtwist``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("symbolic", "rational", "rb-search")


@dataclass(frozen=True)
class Op:
    """One request to ``homtwist.cli.main``."""

    cls: str
    argv: tuple[str, ...]
    expect: int
    output: str | None = None
    defect: str | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmup: tuple[Op, ...]


def build(name: str, seed: int) -> Workload:
    """Write the workload's documents into the current directory and list its ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    makers, warmup = _BUILDERS[name](rng)
    made = [((i + 0.5) / count, k, makers[cls](i))
            for k, (cls, count) in enumerate(_MIX[name]) for i in range(count)]
    # The classes are spread evenly over the round, in an order that is the
    # same for every seed: a slow phase of the host then falls on many classes
    # at once, and the peak resident set, which depends on the order, repeats.
    ops = [op for _, _, op in sorted(made, key=lambda entry: entry[:2])]
    return Workload(tuple(ops), tuple(warmup))


# -- documents -------------------------------------------------------------------

# Classical (identity-twist) associative blocks as sparse products
# {(i, j): {k: coefficient}}.
_BLOCKS = {
    "Q": (1, {(0, 0): {0: 1}}),                                   # the field
    "D": (2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}),   # dual numbers
    "T": (3, {(0, 0): {0: 1}, (0, 1): {1: 1},                     # upper triangular
              (1, 2): {1: 1}, (2, 2): {2: 1}}),                   # 2x2 matrices
}
# The automorphism coordinate of each block that a twist may scale
# (dual numbers: eps -> m eps; triangular: E12 -> m E12).
_SCALED_COORD = {"D": 1, "T": 1}
_RESCALE = [Fraction(v) for v in ("1", "2", "1/2", "-1", "3", "-2/3", "3/2")]
_TWIST = [Fraction(v) for v in ("2", "-1", "1/2", "3", "-2", "2/3", "-3/2")]
_WEIGHTS = [Fraction(v) for v in ("1", "-1", "1/2", "2")]


def _s(x) -> str:
    return str(Fraction(x)) if not isinstance(x, str) else x


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _block_sum(rng: random.Random, layout: list[str]):
    """Structure tensor of a block sum, each block in a seeded rescaled basis.

    Returns (dim, tensor of Fractions, block offsets).
    """
    dim = sum(_block_size(b) for b in layout)
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    offsets = []
    base = 0
    for block in layout:
        offsets.append(base)
        if block in _BLOCKS:
            size, table = _BLOCKS[block]
            s = [rng.choice(_RESCALE) for _ in range(size)]
            for (i, j), coords in table.items():
                for k, coeff in coords.items():
                    c[base + i][base + j][base + k] = coeff * s[i] * s[j] / s[k]
        base += _block_size(block)
    return dim, c, offsets


def _block_size(block: str) -> int:
    return _BLOCKS[block][0] if block in _BLOCKS else int(block[1:])


def _twist_diagonal(rng: random.Random, layout: list[str], symbols=None) -> list[str]:
    """Diagonal of a block-diagonal automorphism, as scalar strings.

    Each dual-number or triangular block scales its nilpotent coordinate by a
    seeded rational (or the next symbol); a zero block is scaled by a constant.
    """
    diag = []
    symbols = list(symbols or [])
    for block in layout:
        size = _block_size(block)
        entries = ["1"] * size
        if block in _SCALED_COORD:
            entries[_SCALED_COORD[block]] = symbols.pop(0) if symbols else _s(rng.choice(_TWIST))
        elif block not in _BLOCKS:
            entries = [_s(rng.choice(_TWIST))] * size
        diag.extend(entries)
    return diag


def _matrix(dim: int, diag=None, entries=None) -> list[list[str]]:
    rows = [["0"] * dim for _ in range(dim)]
    for i, x in enumerate(diag or []):
        rows[i][i] = x
    for (i, j), x in (entries or {}).items():
        rows[i][j] = _s(x)
    return rows


def _document(dim: int, c, params=(), alpha=None, rb=None) -> dict:
    doc = {
        "format": 1,
        "dim": dim,
        "params": list(params),
        "signature": "associative",
        "ops": {"mul": [[[_s(x) for x in vec] for vec in row] for row in c]},
        "alpha": alpha or _matrix(dim, ["1"] * dim),
    }
    if rb is not None:
        doc["rb"] = rb
    return doc


def _times(coeff: Fraction, x: str) -> str:
    """The product of a rational and a twist entry (a rational or one symbol)."""
    try:
        return _s(coeff * Fraction(x))
    except ValueError:
        pass
    if coeff == 0:
        return "0"
    if coeff in (1, -1):
        return x if coeff == 1 else f"-{x}"
    return f"{coeff}*{x}"


def _yau_twisted(doc: dict, diag: list[str]) -> dict:
    """Yau twist of a classical document by the diagonal map ``diag``.

    The twisted product is ``alpha(x y)``, so the structure constant c_ij^k
    becomes diag[k] * c_ij^k, and the twist becomes ``diag``.
    """
    mul = doc["ops"]["mul"]
    twisted = [[[_times(Fraction(x), diag[k]) for k, x in enumerate(vec)] for vec in row]
               for row in mul]
    return {**doc, "ops": {"mul": twisted}, "alpha": _matrix(doc["dim"], diag)}


def _fixture_document(name: str, values=None) -> dict:
    from homtwist.catalog import catalog_get
    from homtwist.cli import to_document

    return to_document(catalog_get(name, values) if values else catalog_get(name))


def _lift(doc: dict, n: int = 2) -> dict:
    """n x n matrices over the algebra of ``doc`` (``construct matrix-algebra``).

    The basis is E_pq (x) e_r at (p * n + q) * d + r; the product is
    (E_pq e_r)(E_qt e_u) = E_pt (e_r e_u), and the twist and the Rota-Baxter
    operator act entrywise.  Only entries are copied: no arithmetic is done.
    """
    d = doc["dim"]
    big = n * n * d

    def flat(p, q, r):
        return (p * n + q) * d + r

    mul = doc["ops"]["mul"]
    c = [[["0"] * big for _ in range(big)] for _ in range(big)]
    for p in range(n):
        for q in range(n):
            for t in range(n):
                for r in range(d):
                    for u in range(d):
                        for k, x in enumerate(mul[r][u]):
                            c[flat(p, q, r)][flat(q, t, u)][flat(p, t, k)] = str(x)

    def lift_map(m):
        rows = [["0"] * big for _ in range(big)]
        for p in range(n):
            for q in range(n):
                for r in range(d):
                    for s in range(d):
                        rows[flat(p, q, r)][flat(p, q, s)] = str(m[r][s])
        return rows

    lifted = {
        "format": doc["format"], "dim": big, "params": list(doc["params"]),
        "signature": "associative", "ops": {"mul": c}, "alpha": lift_map(doc["alpha"]),
    }
    if doc.get("rb") is not None:
        lifted["rb"] = {"weight": doc["rb"]["weight"], "R": lift_map(doc["rb"]["R"])}
    return lifted


def _rb_projection(rng, layout, offsets, dim, theta):
    """R = -theta * P, P the projection onto a nonempty proper set of blocks."""
    chosen = rng.sample(range(len(layout)), rng.randint(1, len(layout) - 1))
    entries = {}
    for b in chosen:
        for t in range(_block_size(layout[b])):
            entries[(offsets[b] + t, offsets[b] + t)] = -theta
    return {"weight": _s(theta), "R": _matrix(dim, entries=entries)}


def _rb_annihilator(rng, layout, offsets, dim):
    """Weight 0: R maps everything into the last (zero) block."""
    zb = len(layout) - 1
    size = _block_size(layout[zb])
    entries = {}
    for t in range(size):
        for u in range(size):
            entries[(offsets[zb] + t, offsets[zb] + u)] = rng.choice(_RESCALE)
    return {"weight": "0", "R": _matrix(dim, entries=entries)}


def _rb_algebra(rng: random.Random, layout: list[str], kind: str, theta=None):
    """A Yau-twisted Rota-Baxter block sum: (document, twist diagonal)."""
    dim, c, offsets = _block_sum(rng, layout)
    if kind == "projection":
        rb = _rb_projection(rng, layout, offsets, dim, theta)
    else:
        rb = _rb_annihilator(rng, layout, offsets, dim)
    diag = _twist_diagonal(rng, layout)
    return _yau_twisted(_document(dim, c, rb=rb), diag), diag


# -- the mixes -------------------------------------------------------------------------

# Op classes with their counts per round.  The counts place
# latency_p50_ms and latency_p90_ms inside a cluster of ops with similar cost,
# away from a gap between clusters, so the percentiles do not jump from seed to
# seed.  Costs are per op at the reference speed of run.py.
_MIX = {
    "symbolic": [
        ("malformed", 5), ("eval", 6), ("doc-check", 6),           # 1-4 ms
        ("fixture-pass", 8), ("fixture-fail", 8),                  # 3-9 ms: p50
        ("doc-construct", 9),                                      # 4-8 ms
        ("lift-fail", 4),                                          # 40-130 ms
        ("lift-pass", 6), ("lift-construct", 6),                   # 170-300 ms: p90
    ],
    "rational": [
        ("small-check", 8), ("small-construct", 9),                # 3-70 ms
        ("small-centroid", 2),                                     # 10-20 ms
        ("mid-construct", 10),                                     # 110-120 ms: p50
        ("lift", 5), ("hit-dense", 2), ("lift-construct", 3),      # 100-570 ms
        ("mid-centroid", 9),                                       # 350-460 ms: p90
        ("tail", 2),                                               # 0.7-2.2 s
    ],
    "rb-search": [
        ("dim1", 14),                                              # 1-2 ms
        ("dim2", 24),                                              # 30-90 ms: p50
        ("dim3-assoc", 8),                                         # 90-180 ms
        ("dim3-lie", 10),                                          # 170-400 ms: p90
    ],
}


def class_counts(name: str) -> dict[str, int]:
    """The fixed op-class mix of a workload."""
    return dict(_MIX[name])


def _rand_q(rng: random.Random, avoid=()) -> str:
    """A small nonzero rational outside ``avoid``."""
    while True:
        q = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        if q not in avoid:
            return str(q)


def _grid(rng: random.Random, size: int, radius: int, halves: bool) -> str:
    """--entries with 0 and size - 1 distinct nonzero points of [-radius, radius]."""
    pool = [Fraction(v) for v in range(-radius, radius + 1) if v]
    if halves:
        pool += [Fraction(2 * v + 1, 2) for v in range(-radius, radius)]
    values = sorted({Fraction(0), *rng.sample(pool, size - 1)})
    return "--entries=" + ",".join(str(v) for v in values)


# -- symbolic ------------------------------------------------------------------------

_FIXTURE_PARAMS = {"ex_assoc3": "ab", "ex_homlie3": "abcd", "jackson_sl2": "q"}
_FIXTURE_PASS = [("ex_assoc3", "hom-associative"), ("ex_homlie3", "hom-lie"),
                 ("jackson_sl2", "hom-lie")]
_FIXTURE_FAIL = [("ex_assoc3", "associative"), ("ex_homlie3", "lie"),
                 ("jackson_sl2", "lie"), ("ex_assoc3", "multiplicative"),
                 ("jackson_sl2", "multiplicative")]
_SYMBOLIC_LAYOUTS = [["T"], ["Q", "D"], ["D", "Q"]]


def _symbolic(rng: random.Random):
    twisted, lifts = [], []
    for n, layout in enumerate(_SYMBOLIC_LAYOUTS):
        dim, c, _ = _block_sum(rng, layout)
        diag = _twist_diagonal(rng, layout, symbols=["a", "b"])
        algebra = _yau_twisted(_document(dim, c, ("a", "b")), diag)
        twisted.append((_write(f"sym_tw{n}.json", algebra),
                        _write(f"sym_alpha{n}.json", _matrix(dim, diag))))
        lifts.append(_write(f"sym_lift{n}.json", _lift(algebra)))
    lifts.append(_write("sym_lift_assoc3.json", _lift(_fixture_document("ex_assoc3"))))
    _write("sym_introws.json", {
        "format": 1, "dim": 2, "params": [], "signature": "associative",
        "ops": {"mul": [rng.randint(1, 9), rng.randint(1, 9)]},
        "alpha": _matrix(2, ["1", "1"]),
    })

    def fixture_pass(i):
        name, klass = _FIXTURE_PASS[i % len(_FIXTURE_PASS)]
        argv = ["check", "--fixture", name, "--class", klass]
        names = _FIXTURE_PARAMS[name]
        if i >= len(_FIXTURE_PASS) and len(names) > 1:
            # evaluate one parameter, keep the others symbolic
            argv += ["--set", f"{rng.choice(names)}={_rand_q(rng)}"]
        return Op("fixture-pass", tuple(argv), 0)

    def fixture_fail(i):
        name, klass = _FIXTURE_FAIL[i % len(_FIXTURE_FAIL)]
        return Op("fixture-fail", ("check", "--fixture", name, "--class", klass), 1)

    def evaluate(i):
        expr = (f"({rng.randint(1, 5)}*a - {rng.randint(1, 5)}/{rng.randint(2, 7)}*b)"
                f"^{rng.randint(2, 4)}*(a + {rng.randint(1, 9)}*b^2 - {rng.randint(1, 9)})")
        argv = ["eval", expr, "--params", "a,b"]
        if i % 2:
            argv += ["--set", f"a={_rand_q(rng)}"]
        return Op("eval", tuple(argv), 0)

    def malformed(i):
        r = rng.randint(1, 9)
        return [
            Op("malformed", ("search", "rb", "--fixture", "unital_field",
                             "--weight", f"{r}/0"), 2, defect="ZeroDivisionError"),
            Op("malformed", ("check", "sym_introws.json", "--class", "associative"), 2,
               defect="TypeError"),
            Op("malformed", ("eval", f"({r}*a+", "--params", "a"), 2),
            Op("malformed", ("check", "--fixture", "ex_assoc3", "--class", "associative",
                             "--set", f"a={r}/x"), 2),
            Op("malformed", ("check", twisted[0][0], "--class", "hom-associative",
                             "--set", f"z={r}"), 2),
        ][i % 5]

    def doc_check(i):
        doc, _ = twisted[i % len(twisted)]
        klass, code = [("hom-associative", 0), ("multiplicative", 0), ("associative", 1)][i % 3]
        return Op("doc-check", ("check", doc, "--class", klass), code)

    def doc_construct(i):
        doc, alpha = twisted[i % len(twisted)]
        kind = (i // len(twisted)) % 3
        if kind == 0:
            argv = ("construct", "yau-twist", doc, "--map", alpha)
        elif kind == 1:
            argv = ("construct", "derived", doc, "--n", str(rng.randint(1, 2)),
                    "--type", str(rng.randint(1, 2)))
        else:
            argv = ("construct", "commutator", doc)
        return Op("doc-construct", argv, 0)

    def lift_fail(i):
        return Op("lift-fail", ("check", lifts[i % len(lifts)], "--class", "associative"), 1)

    def lift_pass(i):
        return Op("lift-pass", ("check", lifts[i % len(lifts)], "--class", "hom-associative"), 0)

    def lift_construct(i):
        source = ("--fixture", "ex_assoc3") if i % 2 else (twisted[i // 2 % len(twisted)][0],)
        return Op("lift-construct", ("construct", "matrix-algebra", *source, "--size", "2",
                                     "-o", "out.json"), 0, output="out.json")

    makers = {
        "fixture-pass": fixture_pass, "fixture-fail": fixture_fail, "eval": evaluate,
        "malformed": malformed, "doc-check": doc_check, "doc-construct": doc_construct,
        "lift-fail": lift_fail, "lift-pass": lift_pass, "lift-construct": lift_construct,
    }
    warmup = [Op("warmup", ("catalog",), 0),
              Op("warmup", ("eval", "(a+1)^2", "--params", "a"), 0),
              Op("warmup", ("check", "--fixture", "ex_assoc3", "--class", "hom-associative"), 0)]
    return makers, warmup


# -- rational ------------------------------------------------------------------------

# Small layouts (dim 3-6) end in a zero block so that either Rota-Baxter kind
# applies; each has a twisted D or T block, so its classical check fails.
_SMALL_LAYOUTS = [["T", "Z1"], ["D", "Q", "Z1"], ["T", "D", "Z1"], ["D", "Z2"],
                  ["T", "Q", "Z2"], ["D", "D", "Z1"]]
# dim-3 layouts lifted to dim-12 matrix algebras: weight 0, weight theta, no R
_LIFT_LAYOUTS = [["D", "Z1"], ["Q", "D"], ["T"]]


def _rb_doc(rng: random.Random, layout: list[str], weight0: bool):
    if weight0:
        return _rb_algebra(rng, layout, "annihilator") + (Fraction(0),)
    theta = rng.choice(_WEIGHTS)
    return _rb_algebra(rng, layout, "projection", theta) + (theta,)


def _rational(rng: random.Random):
    small = []
    for n, layout in enumerate(_SMALL_LAYOUTS):
        algebra, diag, theta = _rb_doc(rng, layout, weight0=n % 2 == 0)
        small.append((_write(f"rat_rb{n}.json", algebra), theta,
                      _write(f"rat_map{n}.json", _matrix(algebra["dim"], diag))))
    bases, lifts = [], []
    for n, layout in enumerate(_LIFT_LAYOUTS):
        if layout == ["T"]:
            dim, c, _ = _block_sum(rng, layout)
            algebra = _yau_twisted(_document(dim, c), _twist_diagonal(rng, layout))
        else:
            algebra, _, _ = _rb_doc(rng, layout, weight0=n == 0)
        lift = _lift(algebra)
        bases.append(_write(f"rat_base{n}.json", algebra))
        lifts.append(_write(f"rat_lift{n}.json", lift))
        if n == 0:
            lift_map = _write("rat_liftmap0.json", lift["alpha"])
    # dim-6 weight-0 Rota-Baxter algebras: tridendriform constructions of one
    # steady cost, the cluster that holds latency_p50_ms
    six = []
    for n, layout in enumerate([["T", "D", "Z1"], ["T", "Q", "Z2"]] * 2):
        algebra, _, _ = _rb_doc(rng, layout, weight0=True)
        six.append(_write(f"rat_six{n}.json", algebra))
    # M_3 over the field with unit 1 or -1 (dim 9): centroid solves of one
    # steady cost, the cluster that holds latency_p90_ms
    mid = []
    for n in range(3):
        unit = rng.choice([1, -1])
        mid.append(_write(f"rat_mid{n}.json", _lift(_document(1, [[[unit]]]), 3)))
    # the dim-12 lift of ex_assoc3 at a = 1, b = 2: the linear-algebra tail
    centroid = _write("rat_centroid.json",
                      _lift(_fixture_document("ex_assoc3", {"a": 1, "b": 2})))

    def small_check(i):
        doc, _, _ = small[i % len(small)]
        klass, code = [("hom-associative", 0), ("rota-baxter", 0), ("multiplicative", 0),
                       ("associative", 1)][i % 4]
        return Op("small-check", ("check", doc, "--class", klass), code)

    def small_construct(i):
        # every kind once, on the documents in turn
        doc, theta, mapping = small[i % len(small)]
        weight0 = theta == 0
        kind = [
            ["rb-dendriform"] if weight0 else ["rb-dendriform", "--weighted"],
            ["rb-tridendriform"],
            ["rb-prelie", "--weight-case", "zero"] if weight0 else ["star-derived"],
            ["derived", "--n", str(1 + i % 2), "--type", str(1 + (i // 2) % 2)],
            ["yau-twist", "--map", mapping],
            ["untwist"],
            ["commutator"],
            ["star-derived"],
            ["matrix-algebra", "--size", "1"],
        ][i % 9]
        return Op("small-construct", ("construct", kind[0], doc, *kind[1:], "-o", "out.json"),
                  0, output="out.json")

    def small_centroid(i):
        return Op("small-centroid", ("search", "centroid", small[i % len(small)][0], "--verify"), 0)

    def mid_construct(i):
        return Op("mid-construct", ("construct", "rb-tridendriform", six[i % len(six)],
                                    "-o", "out.json"), 0, output="out.json")

    def lift_op(i):
        if i == 4:
            return Op("lift", ("construct", "matrix-algebra", bases[0], "--size", "2",
                               "-o", "out.json"), 0, output="out.json")
        doc = lifts[i % len(lifts)]
        klass = "rota-baxter" if i == 3 else "hom-associative"
        return Op("lift", ("check", doc, "--class", klass), 0)

    def lift_construct(i):
        argv = [("untwist", lifts[2]), ("derived", lifts[1], "--n", "1"),
                ("yau-twist", lifts[0], "--map", lift_map)][i % 3]
        return Op("lift-construct", ("construct", *argv, "-o", "out.json"), 0, output="out.json")

    def mid_centroid(i):
        return Op("mid-centroid", ("search", "centroid", mid[i % len(mid)], "--verify"), 0)

    def hit_dense(i):
        return Op("hit-dense", ("search", "rb", "--fixture", "zero_algebra", "--dim", "2",
                                _grid(rng, 4, 3, halves=True),
                                "--weight", _s(rng.choice(_WEIGHTS)), "--verify"), 0)

    def tail(i):
        if i % 2:
            # every one of the 11^4 candidates is a hit: output-bound
            return Op("tail", ("search", "rb", "--fixture", "zero_algebra", "--dim", "2",
                               _grid(rng, 11, 5, halves=False), "--weight", "1"), 0)
        return Op("tail", ("search", "centroid", centroid, "--verify"), 0)

    makers = {
        "small-check": small_check, "small-construct": small_construct,
        "small-centroid": small_centroid, "mid-construct": mid_construct, "lift": lift_op,
        "lift-construct": lift_construct,
        "mid-centroid": mid_centroid, "hit-dense": hit_dense, "tail": tail,
    }
    warmup = [Op("warmup", ("catalog",), 0),
              Op("warmup", ("check", small[0][0], "--class", "rota-baxter"), 0),
              Op("warmup", ("construct", "rb-tridendriform", small[1][0]), 0)]
    return makers, warmup


# -- rb-search -------------------------------------------------------------------------

_SEARCH_WEIGHTS = ["0", "1", "-1", "1/2", "2"]


def _rb_search(rng: random.Random):
    dim2 = []
    for n, layout in enumerate([["D"], ["Q", "Q"], ["D"], ["Q", "Z1"]]):
        dim, c, _ = _block_sum(rng, layout)
        dim2.append(_write(f"rbs_dim2_{n}.json", _document(dim, c)))
    dim3 = []
    for n, layout in enumerate([["T"], ["Q", "D"]]):
        dim, c, _ = _block_sum(rng, layout)
        dim3.append(_write(f"rbs_dim3_{n}.json", _document(dim, c)))

    def search(cls, target, grid, i, limit=False):
        argv = ["search", "rb", *target, grid, "--weight", _SEARCH_WEIGHTS[i % 5], "--verify"]
        if limit:
            argv += ["--limit", str(rng.randint(1, 3))]
        return Op(cls, tuple(argv), 0)

    def dim1(i):
        field = ["--fixture", "unital_field"]
        if i == 0:
            # 41 points: every integer and half in [-10, 10]
            return search("dim1", field, _grid(rng, 41, 10, halves=True), i)
        return search("dim1", field, _grid(rng, rng.randint(3, 13), 6, halves=True), i,
                      limit=i % 3 == 0)

    def dim2_op(i):
        # one grid size: the candidate count, which sets the cost, stays fixed
        return search("dim2", [dim2[i % len(dim2)]], _grid(rng, 10, 4, halves=True), i)

    def dim3_assoc(i):
        if i % 2:
            return search("dim3-assoc", [dim3[i // 2 % len(dim3)]],
                          _grid(rng, 3, 2, halves=True), i)
        if i == 0:
            return search("dim3-assoc", ["--fixture", "ex_assoc3", "--set", "a=1",
                                         "--set", "b=2"], "--entries=-1,0,1", i)
        return search("dim3-assoc", ["--fixture", "ex_assoc3", "--set", f"a={_rand_q(rng)}",
                                     "--set", f"b={_rand_q(rng)}"],
                      _grid(rng, 3, 2, halves=True), i)

    def dim3_lie(i):
        fixture = ["ex_homlie3", "jackson_sl2"][i % 2]
        target = ["--fixture", fixture]
        for p in _FIXTURE_PARAMS[fixture]:
            # at q = -1 or 1 the q-deformed sl2 has dense hits; keep hits sparse
            target += ["--set", f"{p}={_rand_q(rng, avoid=(-1, 1))}"]
        return search("dim3-lie", target, _grid(rng, 3, 2, halves=True), i)

    makers = {"dim1": dim1, "dim2": dim2_op, "dim3-assoc": dim3_assoc, "dim3-lie": dim3_lie}
    warmup = [Op("warmup", ("catalog",), 0),
              Op("warmup", ("search", "rb", "--fixture", "unital_field", "--verify"), 0)]
    return makers, warmup


_BUILDERS = {"symbolic": _symbolic, "rational": _rational, "rb-search": _rb_search}
