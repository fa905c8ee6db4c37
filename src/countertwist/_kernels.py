"""Inner loops of the per-point dynamics on raw libmp values.

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

The Taylor kernels work on sparse rows: a pair (re, im) of dicts, one per
plane, from column to nonzero mpf.  An absent column is an exact zero, so
the zero planes of a real matrix, and the cross-chain zeros of a chain
Hamiltonian's powers, cost nothing.

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
)

ZERO = (fzero, fzero)


def int_horner(coefficients, x, prec, rnd):
    """Repeats the generic Horner loop of ``IntPolynomial.evaluate`` at an
    mpf: ``acc = acc * x + c`` from acc = 0, highest coefficient first, each
    ``c`` given as an exact mpf (``from_int``), as ``mpf + int`` converts it."""
    acc = fzero
    for c in reversed(coefficients):
        acc = mpf_add(mpf_mul(acc, x, prec, rnd), c, prec, rnd)
    return acc


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
    and up*x2 = (−v·im(x2), v·re(x2)) with v = ups[i].

    After t updates M is banded, |i − c| <= t: outside the band every
    operand is an exact zero and so is the result, which is left in place.
    With ``mirrored`` (``ups`` a palindrome) the chain is its own twin, and
    the lower rows of each M are :func:`mirror`'s image of the upper ones.
    """
    size = len(ups) + 1
    neg = [mpf_neg(u) for u in ups]
    # Row i's down factors (re, im planes), then its up factors; an exact
    # zero stands for the missing neighbour at either end of the chain.
    down_re = [fzero] + list(ups)
    down_im = [fzero] + neg
    up_re = neg + [fzero]
    up_im = list(ups) + [fzero]
    computed = (size + 1) // 2 if mirrored else size
    c_re, c_im = coeffs[-1]
    re = [[c_re if i == c else fzero for c in range(size)] for i in range(size)]
    im = [[c_im if i == c else fzero for c in range(size)] for i in range(size)]
    pad = [fzero] * size
    mul, add, sub = mpf_mul, mpf_add, mpf_sub
    for band, k in enumerate(range(len(coeffs) - 2, -1, -1), 1):
        shift = nodes[k]
        c_re, c_im = coeffs[k]
        re_pad = [pad] + re + [pad]
        im_pad = [pad] + im + [pad]
        new_re, new_im = [], []
        for i in range(computed):
            lo, hi = max(0, i - band), min(size, i + band + 1)
            dr, di, ur, ui = down_re[i], down_im[i], up_re[i], up_im[i]
            row_re = [
                sub(add(mul(dr, p1, prec, rnd), mul(ur, p2, prec, rnd), prec, rnd),
                    mul(xa, shift, prec, rnd), prec, rnd)
                for p1, p2, xa in zip(im_pad[i][lo:hi], im_pad[i + 2][lo:hi], re[i][lo:hi])
            ]
            row_im = [
                sub(add(mul(di, q1, prec, rnd), mul(ui, q2, prec, rnd), prec, rnd),
                    mul(xa, shift, prec, rnd), prec, rnd)
                for q1, q2, xa in zip(re_pad[i][lo:hi], re_pad[i + 2][lo:hi], im[i][lo:hi])
            ]
            row_re[i - lo] = add(row_re[i - lo], c_re, prec, rnd)
            row_im[i - lo] = add(row_im[i - lo], c_im, prec, rnd)
            outside = [fzero] * (size - hi)
            new_re.append(pad[:lo] + row_re + outside)
            new_im.append(pad[:lo] + row_im + outside)
        if mirrored:
            new_re += [_flipped(new_re[size - 1 - i], i) for i in range(computed, size)]
            new_im += [_flipped(new_im[size - 1 - i], i) for i in range(computed, size)]
        re, im = new_re, new_im
    return re, im


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
    return [_flipped(plane[size - 1 - i], i) for i in range(size)]


def _flipped(row, i):
    """Row i of the mirror image, from row s−1−i of the source."""
    return [mpf_neg(x) if (i + c) % 2 else x for c, x in enumerate(reversed(row))]


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
    deviation equals mpf_hypot's with a zero imaginary part.
    """
    conj = [
        [(k, (x_re, mpf_neg(x_im, prec, rnd))) for k, (x_re, x_im) in col]
        for col in columns
    ]
    lookup = [dict(col) for col in columns]
    worst = fzero
    for a, col_a in enumerate(conj):
        for b in range(a, len(columns)):
            col_b = lookup[b]
            sum_re, sum_im = [], []
            for k, x in col_a:
                y = col_b.get(k)
                if y is not None:
                    g_re, g_im = mpc_mul(x, y, prec, rnd)
                    sum_re.append(g_re)
                    sum_im.append(g_im)
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
