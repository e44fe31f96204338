"""Products and exact quotients of large Poly2 values as packed integers.

Kronecker substitution maps a polynomial in alpha, beta to one integer, so
that one CPython integer product, or one divmod, does the work of the dict
loops in ring.Poly2.  The functions here take and return the term dicts
{(i, j): c} of Poly2; ring imports this module on the first product or
quotient large enough to need it, so a process that never makes one does
not compile it.

* Packing.  The term c*alpha^i*beta^j goes to slot s = (j - j0)*W + (i - i0)
  of the integer sum c * 2^(8*nb*s), with exponents taken relative to the
  operand's least ones and W the alpha-width of the product (of the
  dividend, for a quotient).  Packing is a ring homomorphism, and it is
  one-to-one on the polynomials of that box whose coefficients lie below
  2^(8*nb - 1); decoding adds 2^(8*nb - 1) to every slot so that negative
  coefficients come back.
* Products.  nb comes from the bound max|t| * max|u| * min(#t, #u) on the
  product's coefficients, so the decoded product is exact.
* Quotients.  a/d is read off divmod(pack(a), pack(d)); a nonzero
  remainder, or an empty quotient box, proves the division inexact.  The
  decoded q is accepted only under a certificate: q lies in its exponent
  box and max|q| * max|d| * min(#q, #d) < 2^(8*nb - 1).  Then q*d and a
  both lie in the set on which packing is one-to-one and have the same
  image, so q*d = a with no multiply-back.  Without the certificate, the
  caller's long division answers; it stays the authority on exactness.
"""

from __future__ import annotations

import sys
from array import array

from .errors import InexactDivision
from .ring import PACK_PAIRS

# array typecodes by item size, for the slot widths read and written
# natively; other widths go byte slice by byte slice
_TYPECODE = {array(code).itemsize: code for code in "qlihb"}
_SWAP = sys.byteorder != "little"


def _box(t):
    """(least i, least j, greatest i, greatest j) over the exponents of a
    non-empty term dict."""
    ii, jj = zip(*t)
    return min(ii), min(jj), max(ii), max(jj)


def _slot_bytes(bound):
    """Bytes per slot, nb, that hold every integer of absolute value <=
    bound as a balanced digit: bound < 2^(8*nb - 1); rounded up to an
    array item size when one fits."""
    nb = bound.bit_length() // 8 + 1
    return min((size for size in _TYPECODE if size >= nb), default=nb)


def _bias(n, nb):
    """The sum of 2^(8*nb*s + 8*nb - 1) over slots s < n: the top bit of
    every slot."""
    return int.from_bytes((1 << (8 * nb - 1)).to_bytes(nb, "little") * n,
                          "little")


def _pack(t, i0, j0, width, rows, nb):
    """The image sum c * 2^(8*nb*s) over the terms c*a^i*b^j of t, slot
    s = (j - j0)*width + (i - i0), for i - i0 < width, j - j0 < rows and
    |c| < 2^(8*nb - 1)."""
    n = width * rows
    code = _TYPECODE.get(nb)
    if code:
        vals = [0] * n
        for (i, j), c in t.items():
            vals[(j - j0) * width + i - i0] = c
        data = array(code, vals)
        if _SWAP:
            data.byteswap()
    else:
        data = bytearray(n * nb)
        for (i, j), c in t.items():
            s = ((j - j0) * width + i - i0) * nb
            data[s:s + nb] = c.to_bytes(nb, "little", signed=True)
    # a slot holds c mod 2^(8*nb); flipping its top bit gives the digit
    # c + 2^(8*nb - 1), in [0, 2^(8*nb)), so the bias comes off exactly
    bias = _bias(n, nb)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(v, i0, j0, width, rows, nb):
    """The terms whose _pack image is v, or None when v has no balanced
    base-2^(8*nb) digits in width*rows slots."""
    n = width * rows
    bias = _bias(n, nb)
    v += bias
    if v < 0 or v.bit_length() > 8 * nb * n:
        return None
    data = (v ^ bias).to_bytes(n * nb, "little")
    code = _TYPECODE.get(nb)
    if code:
        vals = array(code, data)
        if _SWAP:
            vals.byteswap()
        vals = vals.tolist()
    else:
        vals = [int.from_bytes(data[s:s + nb], "little", signed=True)
                for s in range(0, n * nb, nb)]
    keys = [(i, j) for j in range(j0, j0 + rows)
            for i in range(i0, i0 + width)]
    return {k: c for k, c in zip(keys, vals) if c}


def mul(t, u):
    """t*u as one integer product, or None when the product's box has too
    many slots for packing to pay (see ring.PACK_PAIRS)."""
    ti0, tj0, ti1, tj1 = _box(t)
    ui0, uj0, ui1, uj1 = _box(u)
    width = ti1 + ui1 - ti0 - ui0 + 1
    rows = tj1 + uj1 - tj0 - uj0 + 1
    if len(t) * len(u) < PACK_PAIRS + width * rows:
        return None
    # a product coefficient sums at most min(len(t), len(u)) term products
    nb = _slot_bytes(max(map(abs, t.values())) * max(map(abs, u.values()))
                     * min(len(t), len(u)))
    v = (_pack(t, ti0, tj0, width, tj1 - tj0 + 1, nb)
         * _pack(u, ui0, uj0, width, uj1 - uj0 + 1, nb))
    return _unpack(v, ti0 + ui0, tj0 + uj0, width, rows, nb)


def div(a, d):
    """a/d as one integer divmod; InexactDivision when that proves the
    division inexact, None when a's box has too many slots for packing to
    pay or the quotient fails its certificate."""
    ai0, aj0, ai1, aj1 = _box(a)
    di0, dj0, di1, dj1 = _box(d)
    # the quotient's box: least and greatest exponents add in a product
    qi0, qj0, qi1, qj1 = ai0 - di0, aj0 - dj0, ai1 - di1, aj1 - dj1
    if min(qi0, qj0, qi1 - qi0, qj1 - qj0) < 0:
        raise InexactDivision("inexact polynomial division")
    width = ai1 - ai0 + 1
    rows = aj1 - aj0 + 1
    if len(a) * len(d) < PACK_PAIRS + width * rows:
        return None
    ma = max(map(abs, a.values()))
    md = max(map(abs, d.values()))
    qrows = qj1 - qj0 + 1
    # Slots sized for a and d: in fraction-free elimination |q|*|d| stays
    # within about 2*|a|, and rounding nb up to an array item size leaves
    # room for the certificate's count; where that is not enough, the
    # certificate fails and the long division answers.
    nb = _slot_bytes(max(ma, md) * min(len(d), (qi1 - qi0 + 1) * qrows))
    quo, r = divmod(_pack(a, ai0, aj0, width, rows, nb),
                    _pack(d, di0, dj0, width, dj1 - dj0 + 1, nb))
    # packing is a ring homomorphism, so a remainder proves inexactness
    if r:
        raise InexactDivision("inexact polynomial division")
    q = _unpack(quo, qi0, qj0, width, qrows, nb)
    # Certificate: q lies in its box and no coefficient of q*d reaches
    # 2^(8*nb - 1), nor does one of a; packing is one-to-one on such
    # polynomials, and q*d and a have the same image, so q*d = a.
    if (q is None or max(i for i, _ in q) > qi1
            or (max(map(abs, q.values())) * md * min(len(q), len(d))
                >= 1 << (8 * nb - 1))):
        return None
    return q
