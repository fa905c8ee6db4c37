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

The spectral route's kernels (:func:`int_horner`, :func:`chain_horner` with
:func:`mirror`, and :func:`gram_defect`) run on a smaller integer core.  A
core value is a pair (m, e) standing for m·2^e: the mpf without its sign
and bit count, m a signed int that is odd, or (0, 0) for zero, so that a
pair and its mpf name the same canonical value.  The core has one rounding
rule, libmp's round-to-nearest with ties to even at ``prec`` bits, applied
once per product, sum or difference exactly where ``mpf_mul``,
``mpf_add``, ``mpf_sub`` and ``mpc_mul`` apply it, bit counts coming from
``int.bit_length``.  A kernel converts its mpf arguments to pairs on entry
and its results to mpf tuples on return, so its signature is unchanged.  A
sum rounded once over many terms stays with ``mpf_sum``: it drops a term
more than 2·prec bits away from the running sum, a rule that depends on
the order of the terms, so its terms go back to mpf tuples first.  Any
rounding mode other than to-nearest raises InternalConsistencyError.

The Taylor kernels and :func:`newton_coefficients` stay on libmp, so that
the oracle ``verify`` compares the spectral propagator against shares no
arithmetic with it.  They work on sparse rows: a pair (re, im) of dicts,
one per plane, from column to nonzero mpf.  An absent column is an exact
zero, so the zero planes of a real matrix, and the cross-chain zeros of a
chain Hamiltonian's powers, cost nothing.

``prec`` is a binary precision and ``rnd`` a rounding mode, both read from
``mp._prec_rounding`` inside the caller's ``workdps`` block.
"""

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpc_div_mpf,
    mpc_mul,
    mpc_sub,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_hypot,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    mpf_sum,
    round_nearest,
)

from .errors import InternalConsistencyError

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


def chain_horner(coeffs, nodes, ups, prec, rnd, mirrored=False):
    """Newton-form polynomial of one chain block, as (re, im) planes.

    The chain's generator has A[i][i+1] = i·ups[i] and A[i+1][i] = −i·ups[i]
    (real ``ups``, zero diagonal).  Repeats, with mpc entries and a zero
    entry for a missing neighbour,

        M <- [[down*x1 + up*x2 - shift*xa ...] ...];  M[i][i] += c_k

    from M = coeffs[-1]·I, for k = len(coeffs) - 2 down to 0, where x1, x2
    and xa are the entries of column c in rows i-1, i+1 and i.  Both
    couplings have a zero real part, so each product is one rounded real
    product per plane: down*x1 = (u·im(x1), −u·re(x1)) with u = ups[i-1],
    and up*x2 = (−v·im(x2), v·re(x2)) with v = ups[i].  The subtraction is
    the addition of the product by the negated shift.

    After t updates M is banded, |i − c| <= t: outside the band every
    operand is an exact zero and so is the result, which is left in place.
    With ``mirrored`` (``ups`` a palindrome) the chain is its own twin, and
    the lower rows of each M are :func:`mirror`'s image of the upper ones.
    Runs on the integer core.
    """
    _require_nearest(rnd)
    size = len(ups) + 1
    ups = [_pair(u) for u in ups]
    neg = [_neg(u) for u in ups]
    # Row i's down factors (re, im planes), then its up factors; an exact
    # zero stands for the missing neighbour at either end of the chain.
    down_re = [_NIL] + ups
    down_im = [_NIL] + neg
    up_re = neg + [_NIL]
    up_im = ups + [_NIL]
    computed = (size + 1) // 2 if mirrored else size
    c_re, c_im = map(_pair, coeffs[-1])
    re = [[c_re if i == c else _NIL for c in range(size)] for i in range(size)]
    im = [[c_im if i == c else _NIL for c in range(size)] for i in range(size)]
    pad = [_NIL] * size
    mul, add = _mul, _add
    for band, k in enumerate(range(len(coeffs) - 2, -1, -1), 1):
        shift = _neg(_pair(nodes[k]))
        c_re, c_im = map(_pair, coeffs[k])
        re_pad = [pad] + re + [pad]
        im_pad = [pad] + im + [pad]
        new_re, new_im = [], []
        for i in range(computed):
            lo, hi = max(0, i - band), min(size, i + band + 1)
            dr, di, ur, ui = down_re[i], down_im[i], up_re[i], up_im[i]
            row_re = [
                add(add(mul(dr, p1, prec), mul(ur, p2, prec), prec),
                    mul(xa, shift, prec), prec)
                for p1, p2, xa in zip(im_pad[i][lo:hi], im_pad[i + 2][lo:hi], re[i][lo:hi])
            ]
            row_im = [
                add(add(mul(di, q1, prec), mul(ui, q2, prec), prec),
                    mul(xa, shift, prec), prec)
                for q1, q2, xa in zip(re_pad[i][lo:hi], re_pad[i + 2][lo:hi], im[i][lo:hi])
            ]
            row_re[i - lo] = add(row_re[i - lo], c_re, prec)
            row_im[i - lo] = add(row_im[i - lo], c_im, prec)
            outside = [_NIL] * (size - hi)
            new_re.append(pad[:lo] + row_re + outside)
            new_im.append(pad[:lo] + row_im + outside)
        if mirrored:
            new_re += [_flipped(new_re[size - 1 - i], i, _neg) for i in range(computed, size)]
            new_im += [_flipped(new_im[size - 1 - i], i, _neg) for i in range(computed, size)]
        re, im = new_re, new_im
    return tuple([list(map(_mpf, row)) for row in plane] for plane in (re, im))


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


def gram_defect(columns, prec, check_prec, rnd):
    """max |(U†U)[a][b] − δ_ab| as a raw mpf.

    ``columns[a]`` lists (k, U[k][a]) over the nonzero entries of column a in
    ascending k, the entry as an mpc pair.  Repeats

        g = fsum(conj(x) * y over the rows k holding both x = U[k][a] and
                 y = U[k][b], ascending)          at prec
        abs(g - δ_ab)                             at check_prec

    and their maximum, for a <= b only: (U†U)[b][a] is made of the
    conjugated products, so its sums are the conjugates of (U†U)[a][b]'s and
    its deviation the same.  An empty sum is fsum's mpf zero, whose
    deviation equals mpf_hypot's with a zero imaginary part.  The products
    run on the integer core, forming none with an exact-zero factor, and
    the zero components they leave are not summed; the sums and deviations
    stay on libmp.
    """
    _require_nearest(rnd)
    lookup = [{k: (_pair(x_re), _pair(x_im)) for k, (x_re, x_im) in col} for col in columns]
    # conj rounds the negated imaginary part at prec, as mpf_neg does.
    conj = [
        [(k, (x_re, _rounded(-x_im[0], x_im[1], prec))) for k, (x_re, x_im) in col.items()]
        for col in lookup
    ]
    worst = fzero
    for a, col_a in enumerate(conj):
        for b in range(a, len(columns)):
            col_b = lookup[b]
            sum_re, sum_im = [], []
            for k, x in col_a:
                y = col_b.get(k)
                if y is not None:
                    g_re, g_im = _cmul(x, y, prec)
                    if g_re[0]:
                        sum_re.append(_mpf(g_re))
                    if g_im[0]:
                        sum_im.append(_mpf(g_im))
            g_re = mpf_sum(sum_re, prec, rnd)
            if a == b:
                g_re = mpf_sub(g_re, fone, check_prec, rnd)
            deviation = mpf_hypot(g_re, mpf_sum(sum_im, prec, rnd), check_prec, rnd)
            if mpf_gt(deviation, worst):
                worst = deviation
    return worst


def series_term(generator, term, k, prec, rnd):
    """The next Taylor term B·term / k, as sparse rows.

    ``generator[a]`` lists (b, v) over row a's nonzero entries of B in
    column order, v an mpc pair; ``term`` is a list of sparse rows.
    Repeats, per row,

        acc = [v * x for x in term[b]];  acc = [s + v * x ...] for each
        further (b, v);  [s / k for s in acc]

    leaving out every product with an exact-zero factor.  A real v scales
    each plane of term[b] by one rounded product, as ``mpc_mul`` rounds it;
    any other v takes ``mpc_mul``'s own rounded planes.  A product for an
    absent entry of acc is stored as it is.
    """
    kf = from_int(k)
    mul, add = mpf_mul, mpf_add
    rows = []
    for nz in generator:
        acc_re, acc_im = {}, {}
        for b, v in nz:
            v_re, v_im = v
            x_re, x_im = term[b]
            if v_im == fzero:
                products = (
                    {c: mul(v_re, x, prec, rnd) for c, x in x_re.items()},
                    {c: mul(v_re, x, prec, rnd) for c, x in x_im.items()},
                )
            else:
                pairs = {
                    c: mpc_mul(v, (x_re.get(c, fzero), x_im.get(c, fzero)), prec, rnd)
                    for c in x_re.keys() | x_im.keys()
                }
                products = tuple(
                    {c: pair[plane] for c, pair in pairs.items()} for plane in (0, 1)
                )
            for acc, plane in zip((acc_re, acc_im), products):
                for c, p in plane.items():
                    s = acc.get(c)
                    acc[c] = p if s is None else add(s, p, prec, rnd)
        rows.append(tuple(
            {c: mpf_div(s, kf, prec, rnd) for c, s in acc.items() if s != fzero}
            for acc in (acc_re, acc_im)
        ))
    return rows


def all_below(rows, tol, prec, rnd):
    """Repeats ``max(abs(x) for x in rows) < tol`` (abs at prec) over
    sparse rows; an absent entry has abs zero, below any positive tol."""
    return all(
        mpf_lt(mpf_hypot(re.get(c, fzero), im.get(c, fzero), prec, rnd), tol)
        for re, im in rows
        for c in re.keys() | im.keys()
    )


def added(rows, other, prec, rnd):
    """Repeats the entrywise sum ``x + y`` of two matrices of sparse rows.

    An entry present in one matrix only is kept as it is, and a sum that
    cancels to an exact zero is dropped.
    """
    out = []
    for row, other_row in zip(rows, other):
        planes = []
        for plane, other_plane in zip(row, other_row):
            plane = dict(plane)
            for c, y in other_plane.items():
                x = plane.get(c)
                plane[c] = y if x is None else mpf_add(x, y, prec, rnd)
            planes.append({c: x for c, x in plane.items() if x != fzero})
        out.append(tuple(planes))
    return out


def squared(rows, prec, rnd):
    """The matrix product rows·rows of sparse rows, each entry as
    ``mp.fdot`` forms it.

    Repeats ``fdot((x, col[k]) for k, x in nonzero entries of the row)``: the
    exact products re·re, −(im·im) and re·im, im·re of each pair, summed by
    one ``mpf_sum`` per plane in ascending k.  A product with an exact-zero
    factor is zero, which ``mpf_sum`` skips, so each entry sums the nonzero
    products alone, in the same order.  fdot over no pairs returns an mpf
    zero, not an mpc: such a row is returned as None, and a None row stands
    for a row of those zeros on input too.
    """
    mul = mpf_mul
    planes = [({}, {}) if row is None else row for row in rows]
    out = []
    for x_re, x_im in planes:
        support = sorted(x_re.keys() | x_im.keys())
        if not support:
            out.append(None)
            continue
        sum_re, sum_im = {}, {}
        for k in support:
            y_re, y_im = planes[k]
            x = x_re.get(k)
            if x is not None:
                for c, y in y_re.items():
                    sum_re.setdefault(c, []).append(mul(x, y))
                for c, y in y_im.items():
                    sum_im.setdefault(c, []).append(mul(x, y))
            x = x_im.get(k)
            if x is not None:
                for c, y in y_im.items():
                    sum_re.setdefault(c, []).append(mpf_neg(mul(x, y)))
                for c, y in y_re.items():
                    sum_im.setdefault(c, []).append(mul(x, y))
        out.append(tuple(
            {c: s for c, terms in sums.items() if (s := mpf_sum(terms, prec, rnd)) != fzero}
            for sums in (sum_re, sum_im)
        ))
    return out
