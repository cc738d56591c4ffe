"""Term-dict kernels.

Polynomials are stored as dicts mapping a monomial key to a nonzero
number, a Fraction or an int; the kernels work on either.  terms_mul
adds exponent tuples entrywise, the keys of LaurentPoly arithmetic.
term_times_into takes the packed int keys of elim.OrderedRing, whose
sum is the product of monomials, and carries elim's normal forms and
S-polynomials.  add_scaled_inplace works on any keys, and the decider
also runs it on the packed int keys of polyring.monomial_images, which
multiplies its images on those keys itself.  So these loops carry only a
small share of a decide, whose time goes to assembling on packed keys
and to the modular solve.  BACKEND names the implementation for run
reports; there is only this pure-Python one.
"""

BACKEND = "pure"


def add_scaled_inplace(acc, src, scale):
    """acc[k] += scale * src[k] for every key of src, dropping zeros."""
    if not scale or not src:
        return
    get = acc.get
    for k, v in src.items():
        cur = get(k)
        if cur is None:
            acc[k] = scale * v
        else:
            cur = cur + scale * v
            if cur:
                acc[k] = cur
            else:
                del acc[k]


def terms_mul(a, b):
    """Convolution of two exponent dicts; tuple keys add entrywise."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            cur = get(k)
            if cur is None:
                out[k] = va * vb
            else:
                cur = cur + va * vb
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out


def term_times_into(acc, src, shift, scale):
    """acc += scale * x^shift * src, one monomial multiply-accumulate on
    int keys: the key of a product is the sum of the keys."""
    if not scale or not src:
        return
    get = acc.get
    for e, v in src.items():
        k = e + shift
        cur = get(k)
        if cur is None:
            acc[k] = scale * v
        else:
            cur = cur + scale * v
            if cur:
                acc[k] = cur
            else:
                del acc[k]
