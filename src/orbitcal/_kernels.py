"""Term-dict kernels.

Every polynomial in orbitcal is a dict mapping a monomial key to a
nonzero number, a Fraction or an int; the kernels work on either.
term_times_into is the one product loop: it takes int keys whose sum is
the product of monomials, the packed keys of polyring.monomial_images
(the decider's images, elim's check f(psi) = 0, polyring.substitute
in degbound.simplex_integral, the integrand of degbound.kazarnovskii
and the entries of repmodel.sl2_binary_forms) and of
elim.OrderedRing (normal forms and S-polynomials), and a product of two
term dicts is one call per term of the smaller factor.  elim's
coefficients are residues mod a prime, and the kernels leave the ints
they produce unreduced: a sum that is a nonzero multiple of p stays in
the dict, and elim.normal_form reduces each term mod p when it reads it.
add_scaled_inplace works on any keys: it makes the sums of
repmodel.combine (the coordinate pullbacks and paper_decide's
scramble), the sl2 entries, the decider's columns, elim's check and
substitute.  BACKEND names the implementation for
run reports; there is only this pure-Python one.
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
