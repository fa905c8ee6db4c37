"""Inner loops of the per-point dynamics on raw values.

In a small-matrix product most of mpmath's time goes to its number objects:
method dispatch, type checks and one allocation per result.  These kernels
run the same arithmetic on the raw values instead: an mpf is a tuple
(sign, mantissa, exponent, bitcount) and a complex value is a pair (re, im)
of them.  Each kernel repeats, rounding for rounding, the object expression
named in its docstring, so its results are bit-identical to that
expression's.  Four facts carry that over where a kernel does less work
than the expression:

* round-to-nearest commutes with negation, and mpmath has no negative zero,
  so the rounded product with a negated factor is the negated rounded
  product, and a value may be negated after rounding instead of before;
* ``mpc_mul`` forms its four real products exactly and rounds once per
  component, so a factor with an exactly zero part leaves one rounded real
  product per component, and a product with an exact-zero factor adds
  nothing to it;
* ``mpf_add`` of an exact zero and a value already rounded at ``prec``
  returns that value, so an entry only ever added to exact zeros is the
  value itself, and an exact zero may be left out of a sum of two;
* ``mpf_sum`` adds exactly and rounds once, skipping zero mantissas, so it
  is symmetric under negating every term, and zero terms may be left out;
  only the order of the other terms matters.

The kernels of both propagator routes and of the moments run on a smaller
integer core: the spectral route's (:func:`int_horner`, :func:`chain_horner`
with :func:`mirror`, and :func:`gram_defect`), :func:`moments`, and the
Taylor oracle's (:func:`series_term`, :func:`all_below`, :func:`added`,
:func:`reflected` and :func:`squared`).  A core value is a pair (m, e)
standing for m·2^e: the mpf without its sign and bit count, m a signed int
that is odd, or (0, 0) for zero, so that a pair and its mpf name the same
canonical value.  The core has one rounding rule, libmp's round-to-nearest
with ties to even at ``prec`` bits, applied once per product, sum,
difference or quotient exactly where ``mpf_mul``, ``mpf_add``, ``mpf_sub``,
``mpf_div``, ``mpc_mul`` and ``mpf_sum`` apply it, bit counts coming from
``int.bit_length``.  ``mpf_sum`` drops a term more than 2·prec bits away
from its running sum, a rule that depends on the order of the terms, so
:func:`_sum` repeats that rule too, term by term, and is given the terms
in the order ``mpf_sum`` would see them; where the rule cannot fire
(:func:`_fixed_point_safe`), :func:`squared` sums exactly in fixed point
instead.  The spectral kernels convert their mpf arguments to pairs on
entry and their results to mpf tuples on return, so their signatures are
unchanged; the Taylor kernels take and return sparse rows of core values,
converted by ``evolution._taylor_rows``.  Any rounding mode other than
to-nearest raises InternalConsistencyError.

The oracle ``verify`` compares the spectral propagator against shares only
these rounding primitives with it, each pinned bit for bit to libmp's by
``tests/test_kernels.py``; its algorithm (series, scaling and squaring, no
eigenvalues) is its own, and the two routes are compared to 1e-10, far
above any last-bit defect.  :func:`newton_coefficients` stays on libmp.
The generator the oracle exponentiates, −iτH/2^s with H = −iK and K real,
is real, and so is every series term and square: they work on sparse real
rows, one dict per row from column to nonzero core value, the real part of
an mpc entry whose imaginary part is an exact zero.  An absent column is an
exact zero, so the cross-chain zeros of a chain Hamiltonian's powers cost
nothing, and a row of zeros is an empty dict.  :func:`gram_defect` and
:func:`moments` take a propagator's rows as ``Propagator`` holds them,
``rows[a]`` listing (column, (re, im)) over row a's nonzero entries in
ascending column.

The reflection m → −m maps basis index i to n−1−i.  A matrix of size n is
*reflected* when U[n−1−i][n−1−c] = ε_i·ε_c·U[i][c] bit for bit, with
ε_i = (−1)^⌊i/2⌋; ε_i·ε_c = −1 exactly when bit 1 of i and of c differ.
The countertwisting generator and its propagators are reflected, and
:func:`reflects` checks it on the raw values, so that three kernels form
each mirror pair once and take the other member from it:

* a reflected generator with at most two nonzero entries per row gives a
  reflected Taylor term: each product of the reflected row is ε_a·ε_c
  times one of row a, and a sum of two rounded products, ``mpf_add``'s
  single rounding, does not depend on their order; so the series works on
  rows i <= n−1−i and :func:`reflected` completes the rest;
* the reflected entry of a square sums the same exact products over the
  rows k in reverse, so :func:`squared` sums each list forward and in
  reverse where ``mpf_sum``'s drop rule may fire, and takes the partner
  as ε_a·ε_c times the exact sum elsewhere;
* in :func:`gram_defect` the Gram entry of (n−1−b, n−1−a) sums ε_a·ε_b
  times the conjugates of (a, b)'s rounded products, in reverse row order,
  and has the same deviation as that sum; this takes an exact conjugation,
  one whose imaginary parts fit in prec bits.

Where a check fails, the kernels form every entry as before.

``prec`` is a binary precision and ``rnd`` a rounding mode, both read from
``mp._prec_rounding`` inside the caller's ``workdps`` block.
"""

import functools

from mpmath.libmp import (
    fone,
    fzero,
    mpc_div_mpf,
    mpc_sub,
    mpf_gt,
    mpf_hypot,
    mpf_neg,
    mpf_sub,
    round_nearest,
    to_str,
)

from .errors import InternalConsistencyError, InvalidInputError

ZERO = (fzero, fzero)

# The core's zero: the pair of fzero = (0, 0, 0, 0).
_NIL = (0, 0)


def _require_nearest(rnd):
    if rnd != round_nearest:
        raise InternalConsistencyError(
            f"the integer core rounds to nearest only, not {rnd!r}"
        )


def _pair(x):
    """A raw mpf as a core value."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _finite_pair(x):
    """A raw mpf as a core value, refusing nan and the infinities: their
    mantissa is zero, so :func:`_pair` would read them as an exact zero."""
    sign, man, exp, _ = x
    if not man and exp:
        _refuse(x)
    return (-man if sign else man), exp


def _refuse(x):
    raise InvalidInputError(f"the integer core takes finite values only, not {to_str(x, 5)}")


def _mpf(v):
    """A core value as a raw mpf."""
    m, e = v
    if m > 0:
        return 0, m, e, m.bit_length()
    if m:
        return 1, -m, e, (-m).bit_length()
    return fzero


def _neg(v):
    return -v[0], v[1]


def _rounded(m, e, prec):
    """m·2^e rounded once to ``prec`` bits, ties to even, as a core value.

    Adding half a unit of the last kept place and shifting floors the
    result, which rounds a tie up; a tie that lands on an odd mantissa is
    taken back down to the even neighbour.  A carry to the next power of
    two leaves an even mantissa, stripped like any other.
    """
    n = m.bit_length() - prec
    if n > 0:
        s = m + (1 << (n - 1))
        m = s >> n
        e += n
        if m & 1:
            if m << n != s:
                return m, e
            m -= 1
    elif m & 1:
        return m, e
    elif not m:
        return _NIL
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


def _mul(x, y, prec):
    """``mpf_mul(x, y, prec, round_nearest)`` on core values."""
    m = x[0] * y[0]
    n = m.bit_length() - prec
    if n <= 0:
        # Odd times odd is odd: nothing to round or strip.
        return (m, x[1] + y[1]) if m else _NIL
    # _rounded's body, inlined: products are the core's most frequent step.
    s = m + (1 << (n - 1))
    m = s >> n
    e = x[1] + y[1] + n
    if m & 1:
        if m << n != s:
            return m, e
        m -= 1
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


def _add(x, y, prec):
    """``mpf_add(x, y, prec, round_nearest)`` on core values.

    The exact sum, rounded once, except where ``mpf_add`` perturbs instead:
    exponents more than 100 apart and the smaller operand's top bit more
    than prec + 4 bits below the larger's.  There the smaller operand only
    decides the sign of one extra unit prec + 4 bits below the larger
    operand's last bit.  For a larger operand of at most prec bits that is
    the rounded exact sum too; for a wider one it need not be, so the
    branch is repeated as it is.
    """
    xm, xe = x
    ym, ye = y
    if xm and ym:
        offset = xe - ye
        if offset > 100:
            k = prec + 4
            if xm.bit_length() + offset - ym.bit_length() > k:
                return _rounded((xm << k) + (1 if ym > 0 else -1), xe - k, prec)
        elif offset < -100:
            k = prec + 4
            if ym.bit_length() - offset - xm.bit_length() > k:
                return _rounded((ym << k) + (1 if xm > 0 else -1), ye - k, prec)
        if offset >= 0:
            return _rounded((xm << offset) + ym, ye, prec)
        return _rounded(xm + (ym << -offset), xe, prec)
    if xm:
        return _rounded(xm, xe, prec)
    return _rounded(ym, ye, prec)


def _sub(x, y, prec):
    """``mpf_sub(x, y, prec, round_nearest)``: ``mpf_add`` with y negated."""
    return _add(x, (-y[0], y[1]), prec)


def _sum(terms, prec):
    """``mpf_sum(terms, prec, round_nearest)`` on core values.

    Accumulates exactly from man = exp = 0 in the given order, skipping zero
    terms, and rounds once.  ``mpf_sum``'s rule for a term more than 2·prec
    bits away from the running sum is repeated as it is, because it depends
    on the order of the terms: a term that far above a zero sum, or above
    the sum's top bit, replaces the sum; a term whose top bit lies that far
    below the sum's last bit is dropped, unless the sum is zero.
    """
    limit = 2 * prec
    man = exp = 0
    for m, e in terms:
        if m:
            delta = e - exp
            if delta >= 0:
                if delta > limit and (not man or delta - man.bit_length() > limit):
                    man, exp = m, e
                else:
                    man += m << delta
            elif -delta - m.bit_length() > limit:
                if not man:
                    man, exp = m, e
            else:
                man = (man << -delta) + m
                exp = e
    return _rounded(man, exp, prec)


def _cmul(x, y, prec):
    """``mpc_mul(x, y, prec, round_nearest)`` on pairs (re, im) of core values.

    The four real products are exact and each component is rounded once.
    A product with an exact-zero factor is not formed: it is an exact zero,
    which the sum or difference passes over as ``mpf_add`` does.
    """
    (am, ae), (bm, be) = x
    (cm, ce), (dm, de) = y
    return (
        _sub((am * cm, ae + ce) if am and cm else _NIL,
             (bm * dm, be + de) if bm and dm else _NIL, prec),
        _add((am * dm, ae + de) if am and dm else _NIL,
             (bm * cm, be + ce) if bm and cm else _NIL, prec),
    )


def int_horner(coefficients, x, prec, rnd):
    """Repeats the generic Horner loop of ``IntPolynomial.evaluate`` at an
    mpf: ``acc = acc * x + c`` from acc = 0, highest coefficient first, each
    ``c`` given as an exact mpf (``from_int``), as ``mpf + int`` converts it.
    Runs on the integer core.  A zero coefficient (every other one of an
    even or odd chain polynomial) adds nothing to the rounded product."""
    _require_nearest(rnd)
    x = _pair(x)
    acc = _NIL
    for sign, man, exp, _ in reversed(coefficients):
        acc = _mul(acc, x, prec)
        if man:
            acc = _add(acc, (-man if sign else man, exp), prec)
    return _mpf(acc)


def newton_coefficients(values, gaps, prec, rnd):
    """Divided differences of ``values`` on Leja-ordered nodes.

    Repeats ``coeffs[i] = (coeffs[i] - coeffs[i - 1]) / gaps[k][i]`` with
    mpc coefficients, where ``gaps[k][i]`` is the rounded node difference
    ``nodes[i] - nodes[i - k]``.
    """
    coeffs = list(values)
    for k in range(1, len(coeffs)):
        gap = gaps[k]
        for i in range(len(coeffs) - 1, k - 1, -1):
            coeffs[i] = mpc_div_mpf(
                mpc_sub(coeffs[i], coeffs[i - 1], prec, rnd), gap[i], prec, rnd
            )
    return coeffs


def chain_horner(coeffs, nodes, ups, prec, rnd):
    """Newton-form polynomial of one chain block, as (re, im) planes.

    The chain's generator has A[i][i+1] = i·ups[i] and A[i+1][i] = −i·ups[i]
    (real ``ups``, zero diagonal).  Repeats, with mpc entries and a zero
    entry for a missing neighbour,

        M <- [[down*x1 + up*x2 - shift*xa ...] ...];  M[i][i] += c_k

    from M = coeffs[-1]·I, for k = len(coeffs) - 2 down to 0, where x1, x2
    and xa are the entries of column c in rows i-1, i+1 and i.  Trailing
    exact-zero coefficients leave M an exact zero until the last nonzero
    one, c_K, is added to it, which rounds c_K once: the loop starts from
    M = c_K·I, so that at χt = 0, where only c_0 is nonzero, it forms no
    product.  Both
    couplings have a zero real part, so each product is one rounded real
    product per plane: down*x1 = (u·im(x1), −u·re(x1)) with u = ups[i-1],
    and up*x2 = (−v·im(x2), v·re(x2)) with v = ups[i].  The subtraction is
    the addition of the product by the negated shift.

    After t updates M is banded, |i − c| <= t: outside the band every
    operand is an exact zero and so is the result, which is left in place.
    Inside it, :func:`_band_plans` leaves out every product with a
    structural zero operand: an entry outside the last band, the missing
    neighbour at a chain end, or a zero node.  Such a product is an exact
    zero, and ``_add`` of an exact zero and a value already rounded at prec
    returns that value.  Where ``ups`` is a palindrome, bit for bit, the
    chain is its own twin, and the lower rows of each M are :func:`mirror`'s
    image of the upper ones.  Runs on the integer core.
    """
    _require_nearest(rnd)
    size = len(ups) + 1
    mirrored = ups == ups[::-1]
    ups = [_pair(u) for u in ups]
    neg = [_neg(u) for u in ups]
    # Row i's down factors (re, im planes), then its up factors; an exact
    # zero, never multiplied, stands for the missing neighbour at either end
    # of the chain.
    down_re = [_NIL] + ups
    down_im = [_NIL] + neg
    up_re = neg + [_NIL]
    up_im = ups + [_NIL]
    computed = (size + 1) // 2 if mirrored else size
    last = size - 1
    top = len(coeffs) - 1
    while top and coeffs[top] == ZERO:
        top -= 1
    c_re, c_im = map(_pair, coeffs[top])
    if top < len(coeffs) - 1:
        c_re, c_im = _add(_NIL, c_re, prec), _add(_NIL, c_im, prec)
    re = [[c_re if i == c else _NIL for c in range(size)] for i in range(size)]
    im = [[c_im if i == c else _NIL for c in range(size)] for i in range(size)]
    mul, add = _mul, _add
    for band, k in enumerate(range(top - 1, -1, -1), 1):
        shift = _neg(_pair(nodes[k]))
        c_re, c_im = map(_pair, coeffs[k])
        new_re, new_im = [], []
        for i, plan in enumerate(_band_plans(size, band, shift[0] != 0)[:computed]):
            for new, own, other, down, up, c in (
                (new_re, re[i], im, down_re[i], up_re[i], c_re),
                (new_im, im[i], re, down_im[i], up_im[i], c_im),
            ):
                row = []
                for lo, hi, terms in plan:
                    if len(terms) == 3:
                        row += [
                            add(add(mul(down, x, prec), mul(up, y, prec), prec),
                                mul(shift, z, prec), prec)
                            for x, y, z in zip(other[i - 1][lo:hi], other[i + 1][lo:hi], own[lo:hi])
                        ]
                        continue
                    factors = (down, up, shift)
                    sources = (other[i - 1], other[i + 1] if i < last else None, own)
                    if len(terms) == 2:
                        s, t = terms
                        f, g, xs, ys = factors[s], factors[t], sources[s], sources[t]
                        row += [add(mul(f, x, prec), mul(g, y, prec), prec)
                                for x, y in zip(xs[lo:hi], ys[lo:hi])]
                    elif terms:
                        f, xs = factors[terms[0]], sources[terms[0]]
                        row += [mul(f, x, prec) for x in xs[lo:hi]]
                    else:
                        row += [_NIL] * (hi - lo)
                row[i] = add(row[i], c, prec)
                new.append(row)
        if mirrored:
            new_re += [_flipped(new_re[size - 1 - i], i, _neg) for i in range(computed, size)]
            new_im += [_flipped(new_im[size - 1 - i], i, _neg) for i in range(computed, size)]
        re, im = new_re, new_im
    return tuple([list(map(_mpf, row)) for row in plane] for plane in (re, im))


@functools.lru_cache(maxsize=1024)
def _band_plans(size, band, shifted):
    """Each row i of :func:`chain_horner`'s update number ``band``, as runs
    of columns (lo, hi, terms) covering the row.  ``terms`` lists, in the
    order they are added, the products whose operands may be nonzero
    throughout the run: 0 for row i − 1's, 1 for row i + 1's and 2 for the
    shift's product with row i.  A product is left out where its neighbour
    is missing, where the shift is zero (``shifted`` false) and where its
    operand lies outside the last band, |i − c| < band."""
    plans = []
    for i in range(size):
        ranges = []
        if i:
            ranges.append((0, max(0, i - band), min(size, i + band - 1)))
        if i < size - 1:
            ranges.append((1, max(0, i - band + 2), min(size, i + band + 1)))
        if shifted:
            ranges.append((2, max(0, i - band + 1), min(size, i + band)))
        cuts = sorted({0, size} | {x for _, lo, hi in ranges if lo < hi for x in (lo, hi)})
        plans.append(tuple(
            (lo, hi, tuple(t for t, a, b in ranges if a <= lo and hi <= b))
            for lo, hi in zip(cuts, cuts[1:])
        ))
    return tuple(plans)


def mirror(plane):
    """A plane of the twin chain's block: (−1)^(i+c) · plane[s−1−i][s−1−c].

    The twin chain's couplings are the reversed couplings of ``plane``'s
    chain, so its generator is −J·A·J = D·J·A·J·D, with J the reversal and
    D = diag((−1)^i).  Each operation of :func:`chain_horner` on the twin
    maps onto one on ``plane``'s chain with some operands negated and the
    two neighbour products swapped, which by the facts in the module
    docstring gives the negated, or the same, rounded result.
    """
    size = len(plane)
    return [_flipped(plane[size - 1 - i], i, mpf_neg) for i in range(size)]


def _flipped(row, i, negate):
    """Row i of the mirror image, from row s−1−i of the source."""
    return [negate(x) if (i + c) % 2 else x for c, x in enumerate(reversed(row))]


def reflects(lines, negate):
    """Whether a matrix is reflected (see the module docstring), bit for bit.

    ``lines[i]`` maps c to U[i][c] over the nonzero entries of row i, or of
    column i: the relation reads the same on the transpose.  ``negate``
    negates one entry exactly.
    """
    n = len(lines)
    return all(
        lines[n - 1 - i] == {
            n - 1 - c: negate(x) if (i ^ c) & 2 else x for c, x in line.items()
        }
        for i, line in enumerate(lines)
    )


def gram_defect(rows, prec, check_prec, rnd):
    """max |(U†U)[a][b] − δ_ab| as a raw mpf.

    ``rows[k]`` lists (a, U[k][a]) over the nonzero entries of row k in
    ascending a, the entry as an mpc pair.  Repeats

        g = fsum(conj(x) * y over the rows k holding both x = U[k][a] and
                 y = U[k][b], ascending)          at prec
        abs(g - δ_ab)                             at check_prec

    and their maximum, for a <= b only: (U†U)[b][a] is made of the
    conjugated products, so its sums are the conjugates of (U†U)[a][b]'s and
    its deviation the same.  An empty sum is fsum's mpf zero, whose
    deviation equals mpf_hypot's with a zero imaginary part.  The products
    and sums run on the integer core, forming no product with an exact-zero
    factor; the deviations stay on libmp.  A nan or infinite entry, which
    the core would read as an exact zero, raises InvalidInputError.

    Where U is reflected and its conjugation exact, each orbit
    {(a, b), (n−1−b, n−1−a)} is formed once, from the pair with
    a + b <= n−1: the partner's deviation is that of the same products
    summed in reverse (module docstring).
    """
    _require_nearest(rnd)
    n = len(rows)
    lookup = [{} for _ in range(n)]
    for k, row in enumerate(rows):
        for a, (x_re, x_im) in row:
            lookup[a][k] = _finite_pair(x_re), _finite_pair(x_im)
    # conj rounds the negated imaginary part at prec, as mpf_neg does.
    conj = [
        [(k, (x_re, _rounded(-x_im[0], x_im[1], prec))) for k, (x_re, x_im) in col.items()]
        for col in lookup
    ]
    mirrored = reflects(lookup, lambda x: (_neg(x[0]), _neg(x[1]))) and all(
        im[0].bit_length() <= prec for col in lookup for _, im in col.values()
    )
    worst = fzero
    for a, col_a in enumerate(conj):
        for b in range(a, n - a if mirrored else n):
            col_b = lookup[b]
            sum_re, sum_im = [], []
            for k, x in col_a:
                y = col_b.get(k)
                if y is not None:
                    g_re, g_im = _cmul(x, y, prec)
                    sum_re.append(g_re)
                    sum_im.append(g_im)
            g = _sum(sum_re, prec), _sum(sum_im, prec)
            sums = [g]
            if mirrored and a + b < n - 1:
                # The partner's sums; equal ones have the same deviation.
                partner = _sum(reversed(sum_re), prec), _sum(reversed(sum_im), prec)
                if partner != g:
                    sums.append(partner)
            for g_re, g_im in sums:
                g_re = _mpf(g_re)
                if a == b:
                    g_re = mpf_sub(g_re, fone, check_prec, rnd)
                deviation = mpf_hypot(g_re, _mpf(g_im), check_prec, rnd)
                if mpf_gt(deviation, worst):
                    worst = deviation
    return worst


def moments(rows, amplitudes, halves, labels, prec, rnd):
    """The spin moments of φ = U·ψ₀, as ``heisenberg_expectations`` forms
    them with ``mp.fdot`` and ``mp.fsum``.

    ``rows[a]`` lists (k, U[a][k]) over U's nonzero entries in ascending k
    and ``amplitudes`` is ψ₀, entries as mpc pairs; ``halves[i]`` is the
    halved ladder amplitude w linking basis states i and i + 1, and
    ``labels[a]`` the exact label m of state a, both mpfs.  Repeats

        φ[a]    = fdot(U[a][k], ψ₀[k] over k)
        vx[a]   = fdot(w, φ[b] over b = a − 1, a + 1 in the basis)
        vy[a]   = fdot(−i·d·w, φ[b] over the same b), d = b − a
        vz[a]   = fdot(m_a, φ[a])
        ⟨J⟩     = fdot(conj φ[a], v[a] over a)       for v = vx, vy, vz
        ⟨J²⟩    = fsum(|v[a]|² over a)               for v = vx, vy, vz
        cov_yz  = re fdot(conj vy[a], vz[a] over a) − re⟨Jy⟩·re⟨Jz⟩
        corr_xz = 2·re fdot(conj vx[a], vz[a] over a)

    fdot forms the exact products re·re and −(im·im) for the real part and
    re·im, im·re for the imaginary one, pair by pair, and sums each part
    with one ``mpf_sum``.  A product with an exact-zero factor is zero,
    which the sum skips, so a real factor, or −i·d·w's zero real part,
    leaves the same terms in the same order; a fdot of one pair is its
    rounded product.  |x| is ``mpf_hypot`` and its square one rounded
    product, as ``mpf_pow_int(·, 2)`` rounds it.  Runs on the integer core,
    which would read the zero mantissa of a nan or an infinity as an exact
    zero: such an entry or amplitude, which fdot would carry into the
    moments, raises InvalidInputError.

    Returns raw mpfs: the three means as (re, im) pairs, the three second
    moments, cov_yz and corr_xz.
    """
    _require_nearest(rnd)
    amplitudes = [_finite_pair(re) + _finite_pair(im) for re, im in amplitudes]
    phi = []
    for row in rows:
        # U[a][k] = a + bi times ψ₀[k] = c + di: a·c, −(b·d) for the real
        # part and a·d, b·c for the imaginary one, none with a zero factor.
        # A zero mantissa with a nonzero exponent is nan or an infinity.
        re_terms, im_terms = [], []
        for k, ((sa, a, ae, abc), (sb, b, be, bbc)) in row:
            c, ce, d, de = amplitudes[k]
            if a:
                if sa:
                    a = -a
                if c:
                    re_terms.append((a * c, ae + ce))
                if d:
                    im_terms.append((a * d, ae + de))
            elif ae:
                _refuse((sa, a, ae, abc))
            if b:
                if sb:
                    b = -b
                if d:
                    re_terms.append((-b * d, be + de))
                if c:
                    im_terms.append((b * c, be + ce))
            elif be:
                _refuse((sb, b, be, bbc))
        phi.append((_sum(re_terms, prec), _sum(im_terms, prec)))

    vx, vy, vz = [], [], []
    last = len(phi) - 1
    for i, (p_re, p_im) in enumerate(phi):
        # The exact products w·φ[b] for the neighbour b below a, then the
        # one above: vx sums them as they are, and vy's factor −i·d·w puts
        # the imaginary ones with sign d into its real part and the real
        # ones with sign −d into its imaginary part.
        lo_re, lo_im = _scaled(halves[i - 1], phi[i - 1]) if i else (_NIL, _NIL)
        up_re, up_im = _scaled(halves[i], phi[i + 1]) if i < last else (_NIL, _NIL)
        vx.append((_sum((lo_re, up_re), prec), _sum((lo_im, up_im), prec)))
        vy.append((_sum((_neg(lo_im), up_im), prec), _sum((lo_re, _neg(up_re)), prec)))
        m = _pair(labels[i])
        vz.append((_mul(m, p_re, prec), _mul(m, p_im, prec)))

    means = []
    for v in (vx, vy, vz):
        re_terms, im_terms = [], []
        for ((pr, pe), (pi, pie)), ((vr, ve), (vi, vie)) in zip(phi, v):
            # conj φ = (pr, −pi): re·re, −((−im)·im) and re·im, (−im)·re.
            re_terms += (pr * vr, pe + ve), (pi * vi, pie + vie)
            im_terms += (pr * vi, pe + vie), (-pi * vr, pie + ve)
        means.append((_sum(re_terms, prec), _sum(im_terms, prec)))

    seconds = []
    for v in (vx, vy, vz):
        terms = []
        for x_re, x_im in v:
            # mpf_hypot of a part and an exact zero is the part's abs, which
            # rounding at prec leaves as it is.
            if not x_im[0]:
                h = x_re
            elif not x_re[0]:
                h = x_im
            else:
                h = _pair(mpf_hypot(_mpf(x_re), _mpf(x_im), prec, rnd))
            terms.append(_mul(h, h, prec))
        seconds.append(_sum(terms, prec))

    def cross_re(v, z):
        # re fdot(conj v, z): re·re, −((−im)·im) per pair.
        terms = []
        for ((vr, ve), (vi, vie)), ((zr, ze), (zi, zie)) in zip(v, z):
            terms += (vr * zr, ve + ze), (vi * zi, vie + zie)
        return _sum(terms, prec)

    mean_y, mean_z = means[1][0], means[2][0]
    cov_yz = _sub(cross_re(vy, vz), _mul(mean_y, mean_z, prec), prec)
    m, e = cross_re(vx, vz)
    corr_xz = (m, e + 1) if m else _NIL
    return (
        [(_mpf(re), _mpf(im)) for re, im in means],
        [_mpf(x) for x in seconds],
        _mpf(cov_yz),
        _mpf(corr_xz),
    )


def _scaled(w, z):
    """The exact products w·re(z) and w·im(z) of a raw mpf w and a complex
    core value z."""
    m, e = _pair(w)
    (r, r_exp), (s, s_exp) = z
    return (m * r, e + r_exp), (m * s, e + s_exp)


def series_term(generator, term, k, prec, rnd):
    """The next Taylor term B·term / k, as sparse rows of core values.

    ``generator[a]`` lists (b, v) over row a's nonzero entries of the real B
    in column order; ``term`` is a list of sparse rows.  Repeats, per row,
    with mpc objects whose imaginary parts are exact zeros,

        acc = [v * x for x in term[b]];  acc = [s + v * x ...] for each
        further (b, v);  [s / k for s in acc]

    leaving out every product with an exact-zero factor.  ``mpc_mul`` of
    two such values is one rounded real product, and ``mpc_div`` by the real
    k one ``mpf_div`` (:func:`_div`).  A product for an absent entry of acc
    is stored as it is.  Runs on the integer core.
    """
    _require_nearest(rnd)
    mul, add = _mul, _add
    rows = []
    for nz in generator:
        acc = {}
        for b, v in nz:
            for c, x in term[b].items():
                p = mul(v, x, prec)
                s = acc.get(c)
                acc[c] = p if s is None else add(s, p, prec)
        rows.append({c: _div(s, k, prec) for c, s in acc.items() if s[0]})
    return rows


def _div(x, k, prec):
    """``mpf_div(x, from_int(k), prec, round_nearest)`` for a positive int k
    and a core value x.

    ``from_int`` keeps k's odd part t and its power of two.  For t = 1 the
    quotient is x shifted, rounded once.  Otherwise ``mpf_div`` shifts |x|
    left by at least 5 bits, enough for prec + 4 quotient bits, divides by
    t, and appends one sticky bit where the division leaves a remainder,
    so that the single rounding of the quotient is the rounding of the
    exact one; round-to-nearest commutes with negation.
    """
    m, e = x
    if not m:
        return _NIL
    z = (k & -k).bit_length() - 1
    t = k >> z
    if t == 1:
        return _rounded(m, e - z, prec)
    a = -m if m < 0 else m
    extra = prec - a.bit_length() + t.bit_length() + 5
    if extra < 5:
        extra = 5
    q, r = divmod(a << extra, t)
    if r:
        q = (q << 1) | 1
        extra += 1
    q, e = _rounded(q, e - z - extra, prec)
    return (-q, e) if m < 0 else (q, e)


def all_below(rows, tol):
    """Repeats ``max(abs(x) for x in rows) < tol`` over sparse real rows of
    core values, tol a positive core value: the abs of an entry with an
    exactly zero imaginary part is that of its real part, exact for a value
    already at prec, and an absent entry has abs zero, below any positive
    tol."""
    tm, te = tol
    top = te + tm.bit_length()
    for row in rows:
        for m, e in row.values():
            # Top bits decide, unless they are equal: then the mantissas,
            # brought to the smaller exponent.  Rows hold no exact zero.
            d = e + m.bit_length() - top
            if d > 0:
                return False
            if not d:
                m = -m if m < 0 else m
                if (m << (e - te) if e > te else m) >= (tm << (te - e) if te > e else tm):
                    return False
    return True


def added(rows, other, prec, rnd):
    """Repeats the entrywise sum ``x + y`` of two matrices of sparse rows of
    core values.

    An entry present in one matrix only is kept as it is (``mpf_add`` of an
    exact zero and a value at prec returns that value), and a sum that
    cancels to an exact zero is dropped.
    """
    _require_nearest(rnd)
    out = []
    for row, other_row in zip(rows, other):
        row = dict(row)
        for c, y in other_row.items():
            x = row.get(c)
            row[c] = y if x is None else _add(x, y, prec)
        out.append({c: x for c, x in row.items() if x[0]})
    return out


def reflected(rows, n):
    """The sparse rows of core values of a reflected n×n matrix, completed
    from its rows i <= n−1−i (all of them for an unreflected matrix, which
    is returned as it is)."""
    return rows + [
        {n - 1 - c: _neg(x) if (i ^ c) & 2 else x for c, x in rows[i].items()}
        for i in range(n - len(rows) - 1, -1, -1)
    ]


def _fixed_point_safe(rows, prec):
    """Whether every sum of :func:`squared` is its exact sum rounded once.

    ``mpf_sum`` adds exactly, but for a term more than 2·prec bits from
    the running sum it replaces the sum or drops the term (:func:`_sum`).
    Its running exponent never exceeds the lowest bit of some earlier term,
    and a nonzero exact sum of products reaches above the lowest bit of
    each.  Where the nonzero entries' lowest bits lie within prec bits of
    each other, and their top bits within prec − 1 bits, the products'
    lowest bits lie within 2·prec and no term comes that far above the
    sum; a product's lowest bit is at most 2·prec − 3 bits above another
    product's top bit, so none lies that far below.  Neither rule fires,
    and the order of the terms is immaterial.
    """
    lows = [e for row in rows for _, e in row.values()]
    if not lows:
        return True
    tops = [e + m.bit_length() for row in rows for m, e in row.values()]
    return max(lows) - min(lows) <= prec and max(tops) - min(tops) <= prec - 1


def squared(rows, prec, rnd, mirrored=False):
    """The matrix product rows·rows of sparse real rows of core values, each
    entry as ``mp.fdot`` forms it.

    Repeats ``fdot((x, col[k]) for k, x in nonzero entries of the row)``: the
    exact products of each pair, summed by one ``mpf_sum`` in ascending k.
    fdot's products of the exactly zero imaginary parts, and every product
    with an exact-zero factor, are zeros, which ``mpf_sum`` skips, so each
    entry sums the nonzero real products alone, in the same order.  A row
    with no nonzero entry, which only a singular matrix has, stays empty.
    Runs on the integer core.

    Where :func:`_fixed_point_safe` holds, each sum is exact: every entry
    is brought to the lowest exponent as an int, the products of a row are
    summed as ints and the sum is rounded once.  Elsewhere each sum runs
    through :func:`_sum` in ascending k.

    With ``mirrored`` (the rows reflected), row n−1−a is formed with row a:
    entry (n−1−a, n−1−c) is ε_a·ε_c times the sum of (a, c)'s products in
    reverse, which is the same exact sum where it is order-free.
    """
    _require_nearest(rnd)
    n = len(rows)
    computed = (n + 1) // 2 if mirrored else n
    if _fixed_point_safe(rows, prec):
        low = min((e for row in rows for _, e in row.values()), default=0)
        ints = [[(c, m << (e - low)) for c, (m, e) in row.items()] for row in rows]
        out = []
        for row in ints[:computed]:
            sums = {}
            get = sums.get
            for k, x in row:
                for c, y in ints[k]:
                    sums[c] = get(c, 0) + x * y
            out.append({c: _rounded(s, 2 * low, prec) for c, s in sums.items() if s})
        return reflected(out, n) if mirrored else out

    out = [None] * n
    for a in range(computed):
        row = rows[a]
        sums = {}
        for k in sorted(row):
            x, xe = row[k]
            for c, (y, ye) in rows[k].items():
                sums.setdefault(c, []).append((x * y, xe + ye))
        out[a] = {c: s for c, terms in sums.items() if (s := _sum(terms, prec))[0]}
        if mirrored and a < n - 1 - a:
            partner = {}
            for c, terms in sums.items():
                s = _sum(reversed(terms), prec)
                if s[0]:
                    partner[n - 1 - c] = _neg(s) if (a ^ c) & 2 else s
            out[n - 1 - a] = partner
    return out
