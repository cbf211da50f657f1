"""Exact Laurent series truncated in a simplicial cone.

Every series lives over a fixed integer lattice equipped with a unimodular
change of basis K mapping raw monomial exponents to cone coordinates.  A
monomial is admissible when its cone coordinates are componentwise
nonnegative; its degree is their sum, so each degree slice is finite and
truncation at a degree cutoff is exact.  Coefficients are Python ints.

Term store.  A series of rank r and cutoff N keeps one dict per degree
0..N; a term sits in the dict of its degree, keyed by one int

    key = c0 * B**(r-1) + c1 * B**(r-2) + ... + c_{r-1},    B = N + 1,

where (c0, ..., c_{r-1}) are its cone coordinates.  The packing is exact
(Kronecker substitution): a stored term has nonnegative coordinates summing
to at most N, so each coordinate is a single base-B digit.  A product of two
terms whose degrees sum to at most N again has every coordinate <= N, so
adding the two keys carries no digit and gives the key of the product:
multiplying by a monomial is one int addition, and the slice index already
says whether the product survives the truncation.  The digits are
big-endian, so int order of keys equals lex order of coordinates and the
canonical order is (degree, key).  Keys depend on B, so the rule is one
lattice, one cutoff: `mul`, `linear_combine` and `diff_up_to` take
operands of one lattice and one cutoff (`_check_same_ring`), and no
function moves keys to a new base.  A refused series or stream raises
`SeriesError`, a bad argument `ValueError`.
Coordinate tuples and raw exponents appear only where callers see them:
`from_terms`, the one checked constructor (`deserialize` too builds
through it), `expand_term`, `items_canonical`, `support`, `diff_up_to`
and the JSON interchange format.  The lattices of the identities are the
module constants `GL` and `SL21`, and every binomial factor
(1 + s*m)**(-1 if inverse else 1) is a (raw exponents of m, s, inverse)
triple.

Every rank, 1 included, runs on the slice kernel `_add_shifted`: on a
rank-1 lattice a key is its one coordinate, which is its degree, so slice
d holds at most the key d.  The eight-squares check in `squares` keeps its
q-series as plain coefficient lists and does not use this module.
"""

from __future__ import annotations

import operator


# Largest cutoff accepted from outside input (`deserialize`, the CLI
# `--order` and `--max-n`).  A series allocates one dict per degree up to its
# cutoff, and the product side grows roughly like N**4.5: at N = 224,
# `verify-denom` and `ratio-support` take about 16 s each (see README.md).
MAX_CUTOFF = 224
# Largest rank that `deserialize` accepts: inverting K is cubic in the rank.
MAX_RANK = 16


class SeriesError(Exception):
    """A series operation or stream that this module refuses."""


def _invert_unimodular(rows):
    """Inverse rows, as ints, of an integer matrix with det = +-1.

    Fraction-free (Bareiss) Gauss-Jordan on [K | I]: every division is
    exact, and at the end the left block is d * I for the final pivot d, so
    the inverse is the right block divided by d.  d is det K up to the sign
    of the row swaps.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev, swaps = 1, 0
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("K is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            swaps += 1
        p, pivot_row = a[col][col], a[col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], pivot_row)]
        prev = p
    if prev not in (1, -1):
        raise ValueError(f"K must be unimodular, det={-prev if swaps % 2 else prev}")
    return tuple(tuple(x // prev for x in row[n:]) for row in a)


class LatticeSpec:
    """Unimodular raw-exponent -> cone-coordinate matrix K (rows).

    Immutable by convention; ``rank`` is len(K), ``Kinv`` K**-1 as int rows.
    """

    __slots__ = ("rank", "K", "Kinv")

    def __init__(self, K: tuple[tuple[int, ...], ...]):
        rank = len(K)
        if not rank or any(len(r) != rank for r in K):
            raise ValueError("K must be a nonempty square matrix")
        self.rank = rank
        self.K = K
        self.Kinv = _invert_unimodular(K)

    def __eq__(self, other):
        if not isinstance(other, LatticeSpec):
            return NotImplemented
        return self is other or self.K == other.K

    def to_coords(self, exps):
        if len(exps) != self.rank:
            raise ValueError(f"expected {self.rank} exponents, got {len(exps)}")
        return tuple([sum(map(operator.mul, row, exps)) for row in self.K])

    def degree(self, exps) -> int:
        return sum(self.to_coords(exps))


def cone_coords(lattice: LatticeSpec, exps):
    """Cone coordinates K.e, membership flag and degree of a raw exponent."""
    coords = lattice.to_coords(exps)
    return coords, all(c >= 0 for c in coords), sum(coords)


# raw exponents (n, a, b1, b2) of q^n x^a y1^b1 y2^b2; coords
# (b1+n, a+n, b2+n, n), the dual basis of {y1, x, y2, q/(x y1 y2)}; its q^0
# face n = 0 is the finite cone a, b1, b2 >= 0 of degree a+b1+b2
GL = LatticeSpec(((1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, 0)))
# raw exponents (n, b1, b2) of z^n u1^b1 u2^b2; coords (b1+n, b2+n, n)
SL21 = LatticeSpec(((1, 1, 0), (1, 0, 1), (1, 0, 0)))


def _pack(coords, base: int) -> int:
    """Big-endian base-``base`` number whose digits are ``coords``."""
    key = 0
    for c in coords:
        key = key * base + c
    return key


def _decode(lattice, keys, base: int):
    """Cone coordinates and raw exponents of the packed ``keys``, as two
    lists of tuples in their order.

    Works by columns: the keys are unpacked digit by digit, lowest first,
    into one list per coordinate, and each row of Kinv sums the columns of
    its nonzero weights, one list over all keys.
    """
    cols, rest = [], keys
    for _ in range(lattice.rank - 1):
        cols.append([k % base for k in rest])
        rest = [k // base for k in rest]
    cols = [rest, *reversed(cols)]
    exps = []
    for row in lattice.Kinv:  # invertible, so no row is zero
        e = None
        for w, col in zip(row, cols):
            if w:
                part = col if w == 1 else [w * x for x in col]
                e = part if e is None else list(map(operator.add, e, part))
        exps.append(e)
    return list(zip(*cols)), list(zip(*exps))


def _empty(cutoff: int):
    return [{} for _ in range(cutoff + 1)]


def _add_shifted(dsts, srcs, m, scale):
    """dst += scale * t * src in place for every pair of zip(dsts, srcs), in
    that order, t the monomial of packed key m.

    The one loop over the terms of a series: every series operation, at
    every rank, is a few calls of it over whole lists of degree slices.
    Skips empty sources and drops every coefficient that cancels to 0.
    Every term of a source must be nonzero and land at most at the cutoff,
    so the key sum does not carry.  A source may be a destination of an
    earlier pair of the same call; it is read when ``zip`` takes it, after
    that pair is done.
    """
    for dst, src in zip(dsts, srcs):
        if src:
            get = dst.get
            for k, c in src.items():
                k += m
                v = get(k, 0) + scale * c
                if v:
                    dst[k] = v
                else:
                    del dst[k]


class GradedSeries:
    """Truncated exact series with cone-supported terms.

    Immutable by convention: no public mutator, operations return new
    instances.  ``_slices[d]`` maps the packed key of every degree-d term
    to its nonzero coefficient, for d = 0..cutoff.  With rank r and
    B = cutoff + 1 the key of cone coordinates (c0, ..., c_{r-1}) is
    c0*B**(r-1) + ... + c_{r-1}: every stored coordinate lies in
    [0, cutoff], so the packing is exact, and it is big-endian, so key
    order is lex order of coordinates.  Keys are only comparable between
    series of the same cutoff, so binary operations require one.
    """

    __slots__ = ("lattice", "cutoff", "_slices")

    @classmethod
    def _of(cls, lattice, cutoff, slices):
        """Wrap per-degree dicts of packed keys without checking them."""
        s = object.__new__(cls)
        s.lattice = lattice
        s.cutoff = cutoff
        s._slices = slices
        return s

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, lattice, cutoff):
        return cls._of(lattice, cutoff, _empty(cutoff))

    @classmethod
    def one(cls, lattice, cutoff):
        return cls.from_terms(lattice, cutoff, {(0,) * lattice.rank: 1})

    @classmethod
    def from_terms(cls, lattice, cutoff, raw_terms):
        """Build from a {raw exponents: int coefficient} mapping, skipping
        zero coefficients; the one constructor that checks its terms."""
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        slices = _empty(cutoff)
        for exps, c in raw_terms.items():
            if not isinstance(c, int):
                raise ValueError(f"bad coefficient {c!r}")
            if c == 0:
                continue
            if not all(isinstance(x, int) for x in exps):
                raise SeriesError(f"monomial {exps} has a non-int exponent")
            coords, in_cone, deg = cone_coords(lattice, exps)
            if not in_cone:
                raise SeriesError(f"monomial {exps} outside cone")
            if deg > cutoff:
                raise SeriesError(f"monomial {exps} beyond cutoff {cutoff}")
            # K is unimodular, so distinct exponents have distinct keys
            slices[deg][_pack(coords, cutoff + 1)] = c
        return cls._of(lattice, cutoff, slices)

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return sum(map(len, self._slices))

    def is_zero(self) -> bool:
        return not any(self._slices)

    def support(self):
        """Raw exponents of all stored monomials, canonically ordered."""
        return [e for _, e, _ in self.items_canonical()]

    def items_canonical(self):
        """(coords, raw exponents, coefficient), degree-major then lex
        order; each slice's keys are decoded in one `_decode` call."""
        base = self.cutoff + 1
        for sl in self._slices:
            if sl:
                keys = sorted(sl)
                yield from zip(*_decode(self.lattice, keys, base),
                               map(sl.__getitem__, keys))

    def diff_up_to(self, other: "GradedSeries", limit: int):
        """Monomials where the two series, of one lattice and one cutoff,
        differ, at most ``limit`` of them.

        Returns [(raw exponents, self coefficient, other coefficient)] in
        canonical order.
        """
        _check_same_ring(self, other)
        diffs = []
        for sa, sb in zip(self._slices, other._slices):
            if sa == sb:
                continue
            keys = [k for k in sorted(sa.keys() | sb.keys())
                    if sa.get(k, 0) != sb.get(k, 0)]
            keys = keys[:limit - len(diffs)]
            _, exps = _decode(self.lattice, keys, self.cutoff + 1)
            diffs += [(e, sa.get(k, 0), sb.get(k, 0)) for e, k in zip(exps, keys)]
            if len(diffs) >= limit:
                return diffs
        return diffs

    def __eq__(self, other):
        return (isinstance(other, GradedSeries)
                and self.lattice == other.lattice
                and self.cutoff == other.cutoff
                and self._slices == other._slices)

    __hash__ = None

    def __repr__(self):
        return (f"GradedSeries(rank={self.lattice.rank}, cutoff={self.cutoff}, "
                f"terms={len(self)})")


def _check_same_ring(a: GradedSeries, b: GradedSeries):
    """Raise SeriesError unless a and b have one lattice and one cutoff,
    which together fix the key base: K gives a key's digits and the cutoff
    its base B = cutoff + 1."""
    if a.lattice != b.lattice:
        raise SeriesError("series over different lattices")
    if a.cutoff != b.cutoff:
        raise SeriesError(f"series of cutoffs {a.cutoff} and {b.cutoff}")


def linear_combine(pairs) -> GradedSeries:
    """Exact integer linear combination of series of one lattice and one
    cutoff."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty combination")
    first = pairs[0][1]
    out = _empty(first.cutoff)
    for scalar, s in pairs:
        _check_same_ring(first, s)
        if scalar:
            _add_shifted(out, s._slices, 0, scalar)
    return GradedSeries._of(first.lattice, first.cutoff, out)


def mul(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """Exact product of series of one lattice and one cutoff, truncated
    there."""
    _check_same_ring(a, b)
    out = _empty(a.cutoff)
    for da, sa in enumerate(a._slices):
        if sa:
            dsts = out[da:]
            for ka, ca in sa.items():
                _add_shifted(dsts, b._slices, ka, ca)
    return GradedSeries._of(a.lattice, a.cutoff, out)


def _monomial_key(exps, coords, base: int):
    """(degree, packed key in base ``base``) of the monomial of raw
    exponents exps and cone coordinates coords, which must lie in the cone
    with positive degree."""
    deg = sum(coords)
    if deg <= 0 or min(coords) < 0:
        raise SeriesError(
            f"binomial monomial {exps} must lie in the cone with positive degree")
    return deg, _pack(coords, base)


def _key_of(s: GradedSeries, exps):
    """`_monomial_key` of raw exponents exps for a factor of s."""
    return _monomial_key(exps, s.lattice.to_coords(exps), s.cutoff + 1)


def _apply(s: GradedSeries, factors) -> GradedSeries:
    """s times every packed factor (degree, key, sign, inverse) in turn.

    Each factor is (1 + sign * t) or, if inverse, its inverse, for the
    monomial t of that key and degree > 0.  s itself is left untouched: the
    passes run in place on one copy of its slices, one kernel call each.  A
    multiplication pairs slice d + dm with slice d from the top degree down,
    so every slice is read before it receives the contributions of lower
    degrees.  A division walks the degrees from low to high: quotient slice
    d is slice d minus sign * t times the finished quotient slice d - dm,
    which the same call wrote at an earlier pair.
    """
    slices = [dict(sl) for sl in s._slices]
    for dm, m, sign, inverse in factors:
        if inverse:
            _add_shifted(slices[dm:], slices, m, -sign)
        else:
            _add_shifted(slices[:dm - 1:-1], slices[-dm - 1::-1], m, sign)
    return GradedSeries._of(s.lattice, s.cutoff, slices)


def apply_binomials(s: GradedSeries, factors) -> GradedSeries:
    """s times prod (1 + sign * m)**(-1 if inverse else 1) over the
    (raw exponents of m, sign, inverse) factors, each m in the cone with
    positive degree, applied in the given order."""
    return _apply(s, [(*_key_of(s, e), sign, inverse)
                       for e, sign, inverse in factors])


def apply_pochhammer(s: GradedSeries, head, step, sign: int,
                     inverse: bool = False) -> GradedSeries:
    """Multiply (or divide) by prod_{n>=0} (1 + sign * step^n * head).

    Only factors whose monomial has degree <= cutoff differ from 1 below
    the truncation, so the product is finite.  Factor n has the key of
    head plus n times the key of step.
    """
    dm, m = _key_of(s, head)
    dg, step_key = _key_of(s, step)
    return _apply(s, [(dm + n * dg, m + n * step_key, sign, inverse)
                      for n in range((s.cutoff - dm) // dg + 1)])


def expand_term(lattice: LatticeSpec, cutoff: int, sign: int, base,
                factors=()) -> GradedSeries:
    """Expand sign * m^base * prod (1 + s * m^e)**(-1 if inverse else 1)
    over the (e, s, inverse) factors into the cone.

    A factor (1 + s*m)**(+-1) whose monomial m has negative degree is
    rewritten as (s*m)**(+-1) (1 + s/m)**(+-1), which keeps every partial
    expansion cone-supported and needs s = +-1.  A constant numerator
    (1 - 1) makes the term zero; every other factor of degree 0, or of
    negative degree with another s, is rejected.  Each cone coordinate is
    computed once: the factors reach `_apply` packed, and the leading
    monomial is stored without `from_terms`.
    """
    base = tuple(base)
    packed = []
    for e, s, inverse in factors:
        coords = lattice.to_coords(e)
        d = sum(coords)
        if d < 0 and s * s == 1:  # 1 + s*m = s*m * (1 + s/m)
            sign *= s
            base = tuple(b - x if inverse else b + x for b, x in zip(base, e))
            e = tuple(-x for x in e)
            coords = tuple(-c for c in coords)
        elif d <= 0:
            if not inverse and s == -1 and not any(e):
                return GradedSeries.zero(lattice, cutoff)
            raise SeriesError(f"factor {e} of sign {s} and degree {d}")
        packed.append((*_monomial_key(e, coords, cutoff + 1), s, inverse))
    if not all(isinstance(x, int) for x in base):
        raise SeriesError(f"monomial {base} has a non-int exponent")
    coords, in_cone, deg = cone_coords(lattice, base)
    if not in_cone:
        raise SeriesError(f"leading monomial {base} outside cone")
    if deg > cutoff:
        return GradedSeries.zero(lattice, cutoff)
    slices = _empty(cutoff)
    slices[deg][_pack(coords, cutoff + 1)] = sign
    return _apply(GradedSeries._of(lattice, cutoff, slices), packed)


def ring_sum(lattice: LatticeSpec, cutoff: int, ring) -> GradedSeries:
    """Sum of the orbit terms that ring(k) lists, over all integers k.

    ring(k) lists the terms of translation power k as the (sign, base,
    factors) that `expand_term` expands on lattice to cutoff; an empty sum
    is zero.  The sum visits ring n, the powers +-n, for n = 0, 1, 2, ...
    and stops at the first ring n > 0 whose terms are all zero below the
    cutoff.  A ring past the bound, the cutoff itself, that still
    contributes raises SeriesError, so a sum that would not terminate fails.
    """
    def expand(k):
        return [expand_term(lattice, cutoff, *t) for t in ring(k)]
    parts = [GradedSeries.zero(lattice, cutoff), *expand(0)]
    # A ring contributes only if its lowest degree is at most the cutoff.
    # Ring n >= 1 starts at degree 4n - 3 in the closed, What_alpha,
    # What_gamma, T_alpha and T_gamma sums and at 3n^2 - 2n in the sl(2|1)
    # sum, both at least n, so no ring past the cutoff contributes.
    n = 1
    while True:
        live = [t for k in (n, -n) for t in expand(k) if not t.is_zero()]
        if not live:
            return linear_combine((1, t) for t in parts)
        if n > cutoff:
            raise SeriesError(f"ring {n} past the bound {cutoff} still contributes")
        parts += live
        n += 1


# -- interchange format ------------------------------------------------------


def serialize(s: GradedSeries) -> str:
    """Canonical JSON: header plus degree-major, lex-ordered term records.

    The text is that of ``json.dumps(doc, separators=(",", ":"))`` for
    doc = {"rank", "K", "cutoff", "terms": [{"k", "e", "c"}, ...]} with the
    coefficient "c" as a decimal string.  Every field is an int or a decimal
    string, so nothing needs escaping and each record is formatted directly
    from one template per rank.
    """
    row = ",".join(["%d"] * s.lattice.rank)
    record = '{"k":[%s],"e":[%s],"c":"%%d"}' % (row, row)
    K = ",".join([f"[{row}]" % r for r in s.lattice.K])
    head = '{"rank":%d,"K":[%s],"cutoff":%d,"terms":[' % (s.lattice.rank, K, s.cutoff)
    return head + ",".join([record % (*k, *e, c)
                            for k, e, c in s.items_canonical()]) + "]}"


def _is_decimal(x) -> bool:
    digits = x[1:] if isinstance(x, str) and x.startswith("-") else x
    return isinstance(digits, str) and digits.isascii() and digits.isdigit()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_row(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(map(_is_int, x))


def deserialize(text: str) -> GradedSeries:
    """Inverse of `serialize`; every malformed stream raises SeriesError.

    So does a cutoff above MAX_CUTOFF, before anything is allocated for it,
    a rank above MAX_RANK, before K is inverted, and a rank other than len(K).
    """
    import json

    try:
        doc = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise SeriesError(f"malformed series stream: {exc}") from None
    if not isinstance(doc, dict):
        raise SeriesError("malformed series stream: not a JSON object")
    rank, K, cutoff, records = (doc.get(f) for f in ("rank", "K", "cutoff", "terms"))
    if not (_is_int(rank) and _is_int(cutoff) and cutoff >= 0
            and isinstance(K, list) and len(K) == rank
            and all(_int_row(r, rank) for r in K)
            and isinstance(records, list)):
        raise SeriesError("malformed series header: rank, K, cutoff or terms")
    if cutoff > MAX_CUTOFF:
        raise SeriesError(f"series cutoff {cutoff} above the ceiling {MAX_CUTOFF}")
    if rank > MAX_RANK:
        raise SeriesError(f"series rank {rank} above the ceiling {MAX_RANK}")
    try:
        lattice = LatticeSpec(tuple(map(tuple, K)))
    except ValueError as exc:
        raise SeriesError(f"malformed series lattice: {exc}") from None
    terms = {}
    for rec in records:
        if not (isinstance(rec, dict) and _int_row(rec.get("k"), rank)
                and _int_row(rec.get("e"), rank)
                and _is_decimal(rec.get("c"))):
            raise SeriesError(f"malformed record {rec}")
        try:
            c = int(rec["c"])
        except ValueError as exc:  # longer than the int conversion limit
            raise SeriesError(f"malformed record coefficient: {exc}") from None
        e = tuple(rec["e"])
        if tuple(rec["k"]) != lattice.to_coords(e):
            raise SeriesError(f"inconsistent record {rec}")
        if c == 0:
            raise SeriesError(f"zero coefficient record {rec}")
        if e in terms:
            raise SeriesError(f"duplicate record {rec}")
        terms[e] = c
    return GradedSeries.from_terms(lattice, cutoff, terms)
