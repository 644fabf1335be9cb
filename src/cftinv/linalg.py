"""Dense complex linear algebra on raw libmp values, with mpmath's bits.

Everything here returns exactly the entries, types included, that mpmath's
own routines return at the context's precision and rounding, and takes a
fraction of their time by working on Python ints and raw mpf/mpc tuples
instead of ``mp.matrix`` objects.  Only ``mpmath.libmp`` is imported; the
context comes with the operands.

Products.  :func:`matmul` returns the bits of mpmath's ``a * b``.  mpmath's
``fdot`` forms each product of two entries exactly and rounds their sum
once: ``mpf_sum`` adds exactly unless two raw exponents differ by more than
2 prec, then ends in ``from_man_exp(man, exp, prec, rnd)``.  So ``matmul``
converts each row of ``a`` and each column of ``b`` once to signed Python
ints over a common exponent, forms the real and imaginary parts of an entry
as exact int dot products and rounds each once with ``from_man_exp``.
Mantissas are odd, so a product's raw exponent is the sum of its factors';
an entry whose nonzero products' exponents span more than 2 prec bits is
handed to ``fdot`` itself, as is every entry of a row or column holding an
inf, a nan, a value that is not an mpf or mpc, or exponents spread over
more than 8 prec bits.  The span test reads each term's least and greatest
exponent, stored once per row and column when the line is packed.  An entry
is an mpc exactly when row i of ``a`` or column j of ``b`` holds an mpc,
which is ``fdot``'s rule, and zeros are not stored, as in
``matrix.__setitem__``.

Column-sparse products.  When column j of ``b`` is zero outside a known set
of rows, :func:`column_sparse_product` sums only those terms of each entry.
The terms left out are exactly zero, so the exact int sum is unchanged;
row i of ``a`` is packed in full, so the common exponent, the span test
and the mpc rule are ``matmul``'s, and ``fdot`` gets the full lines.

Single-term products.  When entry (i, j) of ``a * b`` has at most one
nonzero term a_ik b_kj, :func:`single_term_product` forms that term alone:
the exact product rounded once by ``from_man_exp``.  That is ``matmul``'s
result, because the other terms of its exact int sum are 0 and the rounding
of an exact value does not depend on how the value is written.  The rest of
``matmul``'s rules are read off the full row and column: ``fdot`` for a line
that does not pack or a term whose exponents span more than 2 prec bits,
an mpc iff the row or the column holds one, no stored zeros.

Eigendecomposition.  :func:`eighe` is mpmath's ``eighe`` (the Householder
reduction ``c_he_tridiag_0``, the implicit QL iteration ``tridiag_eigen``
and the back transformation ``c_he_tridiag_2``) on lists of raw values.
Each operator is the libmp function mpmath's number types dispatch to for
the operand types at hand (``_add`` and its siblings spell the table out),
in the same order, at the same precision and rounding, with the same
``eps`` and ``iterlim = 2 dps``.  mpmath's Python int operands keep their
own calls: an accumulator that starts at ``0`` adds its first term as
``term + 0``, ``2 * H`` is ``mpf_mul_int``, ``1 / r`` is ``mpf_rdiv_int``
and the rotation's first ``s * e[i]`` multiplies by the int 1.  A value
written into one of mpmath's matrices and read back is 0 as an mpf when it
was zero (``_stored``), since the matrix drops zeros.  Every step is then
the same libmp call on the same raw arguments, so every entry of (E, Q) has
mpmath's bits and type.
"""

from __future__ import annotations

from operator import mul

from mpmath.libmp import (finf, fninf, fone, from_man_exp, fzero, mpc_abs,
                          mpc_add, mpc_add_mpf, mpc_conjugate, mpc_div,
                          mpc_div_mpf, mpc_mpf_div, mpc_mul, mpc_mul_mpf,
                          mpc_neg, mpc_sub, mpc_sub_mpf, mpf_abs, mpf_add,
                          mpf_div, mpf_ge, mpf_gt, mpf_hypot, mpf_le, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_rdiv_int,
                          mpf_sqrt, mpf_sub)

_ZERO_LINE = object()
_FDOT = object()
_MPC_ZERO = (fzero, fzero)


# ---------------------------------------------------------------- products

def _scan(xs, ctx, cap):
    """``(lo, hi, cplx, parts)`` of a row or column: the raw (real,
    imaginary) tuples of each entry, whether any entry is an mpc, and the
    least and greatest exponent of a nonzero part.  ``_ZERO_LINE`` for an
    all-zero line; None when an entry is not a finite mpf/mpc or the
    exponents spread over more than ``cap`` bits."""
    mpf_t, mpc_t = ctx.mpf, ctx.mpc
    parts = []
    cplx = False
    for x in xs:
        if type(x) is mpf_t:
            parts.append((x._mpf_, fzero))
        elif type(x) is mpc_t:
            parts.append(x._mpc_)
            cplx = True
        else:
            return None
    exps = []
    for p in parts:
        for sign, man, e, bc in p:
            if man:
                exps.append(e)
            elif e:
                return None                # inf or nan
    if not exps:
        return _ZERO_LINE
    lo, hi = min(exps), max(exps)
    if hi - lo > cap:
        return None
    return lo, hi, cplx, parts


def _pack(xs, ctx, cap):
    """A line of :func:`_scan` as signed ints over one exponent, for
    :func:`matmul`: ``(lo, hi, re, im, ext)`` with
    x_k = (re[k] + i im[k]) 2^lo, ``im`` None when no entry is an mpc, and
    ext[k] the least and greatest raw exponent of x_k's nonzero parts (None
    when x_k is 0)."""
    scan = _scan(xs, ctx, cap)
    if scan is None or scan is _ZERO_LINE:
        return scan
    lo, hi, cplx, parts = scan
    re = [(-man if sign else man) << (e - lo) if man else 0
          for (sign, man, e, bc), _ in parts]
    ext = []
    for p in parts:
        es = [e for sign, man, e, bc in p if man]
        ext.append((min(es), max(es)) if es else None)
    im = None
    if cplx:
        im = [(-man if sign else man) << (e - lo) if man else 0
              for _, (sign, man, e, bc) in parts]
    return lo, hi, re, im, ext


def _span(ext_a, ext_b):
    """Spread of the raw exponents of the nonzero products sum_k a_k b_k,
    from the per-term extents of :func:`_pack`; None when every product is
    zero."""
    ks = [(x[0] + y[0], x[1] + y[1])
          for x, y in zip(ext_a, ext_b) if x and y]
    if not ks:
        return None
    return max(k[1] for k in ks) - min(k[0] for k in ks)


def _dot(pa, pb, limit, prec, rnd):
    """sum_k a_k b_k of two packed lines, rounded once: a raw mpf or mpc,
    None when it is exactly zero, or ``_FDOT`` when the products' exponents
    span more than ``limit`` bits."""
    lo_a, hi_a, re_a, im_a, ext_a = pa
    lo_b, hi_b, re_b, im_b, ext_b = pb
    if hi_a + hi_b - lo_a - lo_b > limit:
        span = _span(ext_a, ext_b)
        if span is None:
            return None
        if span > limit:
            return _FDOT
    e = lo_a + lo_b
    re = sum(map(mul, re_a, re_b))
    if im_a is None and im_b is None:
        return from_man_exp(re, e, prec, rnd) if re else None
    im = 0
    if im_b is not None:
        im += sum(map(mul, re_a, im_b))
    if im_a is not None:
        im += sum(map(mul, im_a, re_b))
    if im_a is not None and im_b is not None:
        re -= sum(map(mul, im_a, im_b))
    if re or im:
        return from_man_exp(re, e, prec, rnd), from_man_exp(im, e, prec, rnd)
    return None


def _entry(ctx, pa, pb, lines):
    """Entry sum_k a_k b_k of :func:`matmul` for the packed lines ``pa``
    and ``pb``, None when ``matmul`` stores nothing; ``lines()`` returns
    the two lines as entries, for the cases handed to ``fdot``."""
    if pa is None or pb is None:
        return ctx.fdot(*lines())
    if pa is _ZERO_LINE or pb is _ZERO_LINE:
        return None
    prec, rnd = ctx._prec_rounding
    v = _dot(pa, pb, 2 * prec, prec, rnd)   # mpf_sum's max_extra_prec
    if v is _FDOT:
        return ctx.fdot(*lines())
    if v is None:
        return None
    return ctx.make_mpf(v) if len(v) == 4 else ctx.make_mpc(v)


def matmul(a, b):
    """The matrix product ``a * b`` with the same bits as mpmath's, on
    Python ints; the module docstring gives the argument and the cases
    that go to ``fdot``."""
    if a.cols != b.rows:
        raise ValueError("dimensions not compatible for multiplication")
    ctx = a.ctx
    cap = 8 * ctx.prec
    b_cols = [[b[k, j] for k in range(b.rows)] for j in range(b.cols)]
    pb_all = [_pack(c, ctx, cap) for c in b_cols]
    out = ctx.matrix(a.rows, b.cols)
    for i in range(a.rows):
        a_row = [a[i, k] for k in range(a.cols)]
        pa = _pack(a_row, ctx, cap)
        for j, pb in enumerate(pb_all):
            v = _entry(ctx, pa, pb, lambda: (a_row, b_cols[j]))
            if v is not None:
                out[i, j] = v
    return out


def column_sparse_product(a, cols, supports, support_of):
    """``a * b`` with :func:`matmul`'s bits for a ``b`` whose column j is
    zero outside the rows ``supports[support_of[j]]`` (a tuple of row
    indices), where it holds ``cols[j]`` in that order.

    Entry (i, j) sums only those terms.  Row i of ``a`` is packed in full,
    so its lo, hi and mpc flag, hence the exponent, the span test and the
    type, are ``matmul``'s; the zeros left out add nothing to the exact
    sum, and ``fdot`` gets the full lines."""
    ctx = a.ctx
    cap = 8 * ctx.prec
    n = a.cols
    p_cols = [_pack(c, ctx, cap) for c in cols]

    def full_col(j):
        col = [ctx.zero] * n
        for k, x in zip(supports[support_of[j]], cols[j]):
            col[k] = x
        return col

    out = ctx.matrix(a.rows, len(cols))
    for i in range(a.rows):
        a_row = [a[i, k] for k in range(n)]
        pa = _pack(a_row, ctx, cap)
        subs = [pa] * len(supports)
        if pa is not None and pa is not _ZERO_LINE:
            lo, hi, re, im, ext = pa
            subs = [(lo, hi, [re[k] for k in rows],
                     None if im is None else [im[k] for k in rows],
                     [ext[k] for k in rows]) for rows in supports]
        for j, pb in enumerate(p_cols):
            v = _entry(ctx, subs[support_of[j]], pb,
                       lambda: (a_row, full_col(j)))
            if v is not None:
                out[i, j] = v
    return out


def _terms(xs, ctx, cap):
    """A line for :func:`single_term_product`: None or ``_ZERO_LINE`` as
    :func:`_scan` says, else ``(cplx, terms)`` with terms[k] = None for a
    zero and ``(lo, hi, re, im)`` otherwise, x_k = (re + i im) 2^lo and lo,
    hi the least and greatest exponent of its nonzero parts."""
    scan = _scan(xs, ctx, cap)
    if scan is None or scan is _ZERO_LINE:
        return scan
    terms = []
    for (rs, rm, re, _), (is_, im, ie, _) in scan[3]:
        if rm and im:
            lo = min(re, ie)
            terms.append((lo, max(re, ie), (-rm if rs else rm) << (re - lo),
                          (-im if is_ else im) << (ie - lo)))
        elif rm:
            terms.append((re, re, -rm if rs else rm, 0))
        elif im:
            terms.append((ie, ie, 0, -im if is_ else im))
        else:
            terms.append(None)
    return scan[2], terms


def single_term_product(ctx, shape, rows, cols, term, lines):
    """The product ``a * b`` with :func:`matmul`'s bits, for operands in
    which entry (i, j) has at most one nonzero term a_ik b_kj.

    ``rows`` and ``cols`` are lists of entries: ``term(i, j)`` returns
    ``(r, ka, c, kb)``, meaning the term is rows[r][ka] * cols[c][kb], row i
    of ``a`` holds exactly the nonzero entries of rows[r] and column j of
    ``b`` those of cols[c].  ``lines(i, j)`` returns row i of ``a`` and
    column j of ``b`` in full, for the entries ``matmul`` hands to ``fdot``.
    """
    prec, rnd = ctx._prec_rounding
    limit = 2 * prec
    t_rows = [_terms(x, ctx, 8 * prec) for x in rows]
    t_cols = [_terms(x, ctx, 8 * prec) for x in cols]
    make_mpf, make_mpc = ctx.make_mpf, ctx.make_mpc
    n_rows, n_cols = shape
    out = ctx.matrix(n_rows, n_cols)
    for i in range(n_rows):
        for j in range(n_cols):
            r, ka, c, kb = term(i, j)
            la, lb = t_rows[r], t_cols[c]
            if la is None or lb is None:
                out[i, j] = ctx.fdot(*lines(i, j))
                continue
            if la is _ZERO_LINE or lb is _ZERO_LINE:
                continue
            x, y = la[1][ka], lb[1][kb]
            if x is None or y is None:
                continue
            lo_a, hi_a, ar, ai = x
            lo_b, hi_b, br, bi = y
            if hi_a + hi_b - lo_a - lo_b > limit:
                out[i, j] = ctx.fdot(*lines(i, j))
                continue
            e = lo_a + lo_b
            re = ar * br - ai * bi
            if not (la[0] or lb[0]):
                if re:
                    out[i, j] = make_mpf(from_man_exp(re, e, prec, rnd))
                continue
            im = ar * bi + ai * br
            if re or im:
                out[i, j] = make_mpc((from_man_exp(re, e, prec, rnd),
                                      from_man_exp(im, e, prec, rnd)))
    return out


def scale_columns(a, d):
    """``a * d`` for a diagonal matrix ``d``, with :func:`matmul`'s bits:
    entry (i, j) is the single term a[i, j] d[j, j]."""
    n = a.cols
    rows = [[a[i, k] for k in range(n)] for i in range(a.rows)]
    return single_term_product(
        a.ctx, (a.rows, n), rows, [[d[j, j]] for j in range(n)],
        lambda i, j: (i, j, j, 0),
        lambda i, j: (rows[i], [d[k, j] for k in range(n)]))


# ---------------------------------------------------------- eighe on libmp
#
# mpmath's operator table for raw values: an mpf is a 4-tuple, an mpc a
# pair of them.  Each helper makes the call that ``x op y`` makes on the
# mpf/mpc objects (see ``ctx_mp_python``).

def _add(x, y, prec, rnd):
    if len(x) == 4:
        if len(y) == 4:
            return mpf_add(x, y, prec, rnd)
        return mpc_add_mpf(y, x, prec, rnd)
    if len(y) == 4:
        return mpc_add_mpf(x, y, prec, rnd)
    return mpc_add(x, y, prec, rnd)


def _sub(x, y, prec, rnd):
    if len(x) == 4:
        if len(y) == 4:
            return mpf_sub(x, y, prec, rnd)
        return mpc_sub((x, fzero), y, prec, rnd)
    if len(y) == 4:
        return mpc_sub_mpf(x, y, prec, rnd)
    return mpc_sub(x, y, prec, rnd)


def _mul(x, y, prec, rnd):
    if len(x) == 4:
        if len(y) == 4:
            return mpf_mul(x, y, prec, rnd)
        return mpc_mul_mpf(y, x, prec, rnd)
    if len(y) == 4:
        return mpc_mul_mpf(x, y, prec, rnd)
    return mpc_mul(x, y, prec, rnd)


def _div(x, y, prec, rnd):
    if len(x) == 4:
        if len(y) == 4:
            return mpf_div(x, y, prec, rnd)
        return mpc_mpf_div(x, y, prec, rnd)
    if len(y) == 4:
        return mpc_div_mpf(x, y, prec, rnd)
    return mpc_div(x, y, prec, rnd)


def _neg(x, prec, rnd):
    return mpf_neg(x, prec, rnd) if len(x) == 4 else mpc_neg(x, prec, rnd)


def _conj(x, prec, rnd):
    return x if len(x) == 4 else mpc_conjugate(x, prec, rnd)


def _abs(x, prec, rnd):
    return mpf_abs(x, prec, rnd) if len(x) == 4 else mpc_abs(x, prec, rnd)


def _re(x):
    return x if len(x) == 4 else x[0]


def _im(x):
    return fzero if len(x) == 4 else x[1]


def _raw(x):
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def _stored(x):
    """What an mpmath matrix gives back for ``x`` written into it."""
    return fzero if x == fzero or x == _MPC_ZERO else x


def _tridiag_0(A, prec, rnd):
    """``c_he_tridiag_0``: reduce the Hermitian rows ``A`` in place to the
    compressed Householder form; returns the lists D, E, T."""
    n = len(A)
    D, E, T = [fzero] * n, [fzero] * n, [fzero] * n
    T[n - 1] = fone
    for i in range(n - 1, 0, -1):
        scale = None                                   # mpmath's int 0
        for k in range(i):
            x = A[k][i]
            v = mpf_add(mpf_abs(_re(x), prec, rnd), mpf_abs(_im(x), prec, rnd),
                        prec, rnd)
            scale = (mpf_add(v, fzero, prec, rnd) if scale is None
                     else mpf_add(scale, v, prec, rnd))
        scale_inv = None
        if scale != fzero:
            scale_inv = mpf_rdiv_int(1, scale, prec, rnd)
        if scale == fzero or scale_inv in (finf, fninf):
            E[i] = D[i] = fzero
            T[i - 1] = fone
            continue
        if i == 1:
            F = A[i - 1][i]
            f = _abs(F, prec, rnd)
            E[i] = f
            D[i] = fzero
            if f != fzero:
                T[i - 1] = _stored(_div(_mul(T[i], F, prec, rnd), f, prec, rnd))
            else:
                T[i - 1] = T[i]
            continue

        H = None
        for k in range(i):
            x = A[k][i] = _stored(_mul(A[k][i], scale_inv, prec, rnd))
            rr, ii = _re(x), _im(x)
            v = mpf_add(mpf_mul(rr, rr, prec, rnd), mpf_mul(ii, ii, prec, rnd),
                        prec, rnd)
            H = (mpf_add(v, fzero, prec, rnd) if H is None
                 else mpf_add(H, v, prec, rnd))
        F = A[i - 1][i]
        f = _abs(F, prec, rnd)
        G = mpf_sqrt(H, prec, rnd)
        H = mpf_add(H, mpf_mul(G, f, prec, rnd), prec, rnd)
        E[i] = mpf_mul(scale, G, prec, rnd)
        if f != fzero:
            F = _div(F, f, prec, rnd)
            TZ = _mul(_neg(T[i], prec, rnd), F, prec, rnd)
            G = _mul(G, F, prec, rnd)
        else:
            TZ = _neg(T[i], prec, rnd)
        A[i - 1][i] = _stored(_add(A[i - 1][i], G, prec, rnd))

        F = None
        for j in range(i):
            A[i][j] = _stored(_div(A[j][i], H, prec, rnd))
            G = None
            for k in range(i):
                x = _conj(A[k][j], prec, rnd) if k <= j else A[j][k]
                p = _mul(x, A[k][i], prec, rnd)
                G = _add(p, fzero, prec, rnd) if G is None else _add(G, p, prec, rnd)
            T[j] = _stored(_div(G, H, prec, rnd))
            p = _mul(_conj(T[j], prec, rnd), A[j][i], prec, rnd)
            F = _add(p, fzero, prec, rnd) if F is None else _add(F, p, prec, rnd)

        HH = _div(F, mpf_mul_int(H, 2, prec, rnd), prec, rnd)
        for j in range(i):
            F = A[j][i]
            G = _sub(T[j], _mul(HH, F, prec, rnd), prec, rnd)
            T[j] = _stored(G)
            cf, cg = _conj(F, prec, rnd), _conj(G, prec, rnd)
            for k in range(j + 1):
                A[k][j] = _stored(_sub(A[k][j], _add(
                    _mul(cf, T[k], prec, rnd), _mul(cg, A[k][i], prec, rnd),
                    prec, rnd), prec, rnd))
        T[i - 1] = _stored(TZ)
        D[i] = H

    E[:n - 1] = E[1:]
    E[n - 1] = fzero
    D[0] = fzero
    for i in range(n):
        D[i], A[i][i] = _re(A[i][i]), D[i]
    return D, E, T


def _tridiag_eigen(d, e, z, prec, rnd, eps, iterlim):
    """``tridiag_eigen``: implicit QL on the real tridiagonal (d, e), with
    the rotations applied to the columns ``z`` (z[i] is column i)."""
    n = len(d)
    e[n - 1] = fzero
    for l in range(n):
        j = 0
        while True:
            m = l
            while m + 1 != n:
                bound = mpf_mul(eps, mpf_add(mpf_abs(d[m], prec, rnd),
                                             mpf_abs(d[m + 1], prec, rnd),
                                             prec, rnd), prec, rnd)
                if mpf_le(mpf_abs(e[m], prec, rnd), bound):
                    break
                m += 1
            if m == l:
                break
            if j >= iterlim:
                raise RuntimeError("tridiag_eigen: no convergence to an "
                                   "eigenvalue after %d iterations" % iterlim)
            j += 1

            p = d[l]
            g = mpf_div(mpf_sub(d[l + 1], p, prec, rnd),
                        mpf_mul_int(e[l], 2, prec, rnd), prec, rnd)
            r = mpf_hypot(g, fone, prec, rnd)
            s = (mpf_sub if mpf_lt(g, fzero) else mpf_add)(g, r, prec, rnd)
            g = mpf_add(mpf_sub(d[m], p, prec, rnd),
                        mpf_div(e[l], s, prec, rnd), prec, rnd)

            s = c = p = None                           # mpmath's ints 1, 1, 0
            for i in range(m - 1, l - 1, -1):
                if s is None:
                    f = mpf_mul_int(e[i], 1, prec, rnd)
                    b = mpf_mul_int(e[i], 1, prec, rnd)
                else:
                    f = mpf_mul(s, e[i], prec, rnd)
                    b = mpf_mul(c, e[i], prec, rnd)
                if mpf_gt(mpf_abs(f, prec, rnd), mpf_abs(g, prec, rnd)):
                    c = mpf_div(g, f, prec, rnd)
                    r = mpf_hypot(c, fone, prec, rnd)
                    e[i + 1] = mpf_mul(f, r, prec, rnd)
                    s = mpf_rdiv_int(1, r, prec, rnd)
                    c = mpf_mul(c, s, prec, rnd)
                else:
                    s = mpf_div(f, g, prec, rnd)
                    r = mpf_hypot(s, fone, prec, rnd)
                    e[i + 1] = mpf_mul(g, r, prec, rnd)
                    c = mpf_rdiv_int(1, r, prec, rnd)
                    s = mpf_mul(s, c, prec, rnd)
                g = mpf_sub(d[i + 1], fzero if p is None else p, prec, rnd)
                r = mpf_add(mpf_mul(mpf_sub(d[i], g, prec, rnd), s, prec, rnd),
                            mpf_mul(mpf_mul_int(c, 2, prec, rnd), b, prec, rnd),
                            prec, rnd)
                p = mpf_mul(s, r, prec, rnd)
                d[i + 1] = mpf_add(g, p, prec, rnd)
                g = mpf_sub(mpf_mul(c, r, prec, rnd), b, prec, rnd)

                zi, zi1 = z[i], z[i + 1]
                for w in range(len(zi)):
                    f = zi1[w]
                    zi1[w] = mpf_add(mpf_mul(s, zi[w], prec, rnd),
                                     mpf_mul(c, f, prec, rnd), prec, rnd)
                    zi[w] = mpf_sub(mpf_mul(c, zi[w], prec, rnd),
                                    mpf_mul(s, f, prec, rnd), prec, rnd)

            d[l] = mpf_sub(d[l], p, prec, rnd)
            e[l] = g
            e[m] = fzero

    for ii in range(1, n):                             # bubble sort
        i = k = ii - 1
        p = d[i]
        for j in range(ii, n):
            if mpf_ge(d[j], p):
                continue
            k = j
            p = d[k]
        if k == i:
            continue
        d[k] = d[i]
        d[i] = p
        z[i], z[k] = z[k], z[i]


def _tridiag_2(A, T, z, prec, rnd):
    """``c_he_tridiag_2``: apply the compressed Q of ``A`` and T to the
    columns ``z`` in place."""
    n = len(A)
    for col in z:
        for k in range(n):
            col[k] = _stored(_mul(col[k], T[k], prec, rnd))
    for i in range(n):
        if A[i][i] != fzero:
            row = [_conj(A[i][k], prec, rnd) for k in range(i)]
            for col in z:
                G = None
                for k in range(i):
                    p = _mul(row[k], col[k], prec, rnd)
                    G = _add(p, fzero, prec, rnd) if G is None else _add(G, p, prec, rnd)
                for k in range(i):
                    col[k] = _stored(_sub(col[k], _mul(G, A[k][i], prec, rnd),
                                          prec, rnd))


def eighe(a):
    """``(E, Q)`` of mpmath's ``eighe(a)`` for a Hermitian ``mp.matrix``,
    with the same bits and types (the module docstring has the argument):
    E the ascending eigenvalues as an n x 1 matrix, Q the eigenvectors as
    columns."""
    ctx = a.ctx
    prec, rnd = ctx._prec_rounding
    n = a.rows
    A = [[_raw(a[i, j]) for j in range(n)] for i in range(n)]
    d, e, t = _tridiag_0(A, prec, rnd)
    z = [[fone if w == i else fzero for w in range(n)] for i in range(n)]
    _tridiag_eigen(d, e, z, prec, rnd, ctx.eps._mpf_, 2 * ctx.dps)
    _tridiag_2(A, t, z, prec, rnd)
    evals, q = ctx.matrix(n, 1), ctx.matrix(n, n)
    for i in range(n):
        evals[i] = ctx.make_mpf(d[i])
        for w, x in enumerate(z[i]):
            q[w, i] = ctx.make_mpf(x) if len(x) == 4 else ctx.make_mpc(x)
    return evals, q
