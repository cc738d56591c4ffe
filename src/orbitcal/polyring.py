"""Multivariate Laurent polynomials over Q.

Variables split into r "invertible" positions (negative exponents
allowed) followed by s ordinary positions (exponents in N).  A
polynomial is a term dict from exponent tuples to nonzero Fractions,
everywhere in orbitcal; Ambient is the variable layout, the one place
that knows it: it parses text into a term dict and checks a given one
(Fraction coefficients, no zero terms, the width and the signs of the
exponents).  repmodel.RepresentationData and elim.SubspaceMap check
what they are given through it, so outside input is checked where it
enters.  Sums are add_scaled_inplace on the term dicts, evaluate_terms
gives the exact value at a point, a plain sum of products of powers,
and format_terms prints the terms in descending (degree, exponent)
order.

Every product runs on packed keys: monomial_images encodes an exponent
tuple as one int, its degree and entries as digits base W, with W
chosen from a degree bound so that no two monomials share a key and int
order is (degree, exponent) order; a monomial product is then one
integer addition, the _kernels.term_times_into loop.  The decider's
pullback images, elim's check f(psi) = 0, substitute, the integrand of
degbound.kazarnovskii and the matrix entries of
repmodel.sl2_binary_forms all take their products of powers from it.
The encoding stays inside this module; callers get the keys with a
decoder back to tuples.

Text format, shared by the CLI and the JSON payloads::

    1 + 2*x1^-2*x2*x3 - 3/4*x2^5

Rationals are ``p/q`` or plain integers, ``^`` takes an integer
exponent (negative only on invertible variables), ``*`` separates the
factors of a term, parsing is whitespace-insensitive.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul

from orbitcal._kernels import add_scaled_inplace, term_times_into


class Ambient:
    """Variable layout: r invertible followed by s ordinary variables."""

    __slots__ = ("r", "s", "names")

    def __init__(self, r: int, s: int, names=None):
        if r < 0 or s < 0:
            raise ValueError("negative variable count")
        self.r = r
        self.s = s
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(r + s))
        else:
            names = tuple(names)
            if len(names) != r + s:
                raise ValueError("name count does not match variable count")
        self.names = names

    @property
    def nvars(self) -> int:
        return self.r + self.s

    def check_exponent(self, exp) -> tuple[int, ...]:
        if isinstance(exp, str):
            # a JSON object's keys are strings: "12" would read as (1, 2)
            raise TypeError(f"expected an exponent tuple, got {exp!r}")
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars:
            raise ValueError(f"exponent width {len(exp)} != {self.nvars}")
        for k in range(self.r, self.nvars):
            if exp[k] < 0:
                raise ValueError(
                    f"negative exponent on non-invertible variable {self.names[k]}"
                )
        return exp

    def check(self, terms) -> dict[tuple[int, ...], Fraction]:
        """A term dict of this layout: the given one with Fraction
        coefficients, zero terms dropped, every exponent checked by
        check_exponent, the term order kept."""
        clean = {}
        for exp, coef in terms.items():
            coef = Fraction(coef)
            if coef:
                clean[self.check_exponent(exp)] = coef
        return clean

    def parse(self, text: str) -> dict[tuple[int, ...], Fraction]:
        """The checked term dict of a text in the shared format."""
        return self.check(parse_terms(text, self.names))

    def __repr__(self):
        return f"Ambient(r={self.r}, s={self.s})"


def evaluate_terms(terms, point) -> Fraction:
    """Exact value of a term dict at a point of Fractions."""
    total = Fraction(0)
    for exp, coef in terms.items():
        for i, e in enumerate(exp):
            if e:
                coef *= point[i] ** e
        total += coef
    return total


def monomial_images(images, nvars: int, top: int):
    """Return (image, decode) for term dicts images[0..] of exponent
    width nvars and any number type: image(q) is prod_i images[i]**q[i]
    for q in N^len(images) with |q| <= top, as a term dict on packed
    keys, and decode turns a packed key back into its exponent tuple.

    A key packs an exponent e as sum_i e_i (W^(n-1-i) + W^n), n = nvars:
    the degree |e| as the top digit, then e_0 down to e_(n-1).  Every
    monomial of an image is a sum of at most top exponents of the given
    terms, so its entry i lies in [lo_i, hi_i] = [top min(0, min e_i),
    top max(0, max e_i)], negative entries included; W exceeds every
    hi_i - lo_i.  Packing adds exponents exactly, since it is linear, and
    is one to one on that box, since digits from W consecutive values are
    unique.  So a product of images multiplies on int keys, each monomial
    product one integer addition, and no two monomials share a key.  A
    request with |q| > top could leave the box and raises ValueError.

    Int order on keys is (degree, exponent) order on the box: two
    exponents differ by less than W in each entry, so below the top digit
    the keys differ by sum_i (e_i - e'_i) W^(n-1-i), whose first nonzero
    term outweighs the rest, and that whole part lies inside (-W^n, W^n),
    which a difference in the top digit outweighs.

    Images are memoized: image(q) is one product, image(q - e_i) *
    images[i] with i the nonzero index of q whose factor has the fewest
    terms, built bottom up in a loop, one term_times_into call per term
    of the smaller factor.  The cache holds only term dicts, so no
    reference cycle keeps it alive.  The returned dicts are shared: copy
    one before mutating it."""
    lows, highs = [0] * nvars, [0] * nvars
    for terms in images:
        for exp in terms:
            for i, e in enumerate(exp):
                if e < lows[i]:
                    lows[i] = e
                elif e > highs[i]:
                    highs[i] = e
    width = top * max((hi - lo for lo, hi in zip(lows, highs)), default=0) + 1
    lows = [top * lo for lo in reversed(lows)]  # decode reads e_(n-1) first
    weights = [width ** (nvars - 1 - i) + width**nvars for i in range(nvars)]
    factors = [{sum(map(mul, exp, weights)): c for exp, c in terms.items()} for terms in images]
    sizes = [len(terms) for terms in factors]
    cache: dict[tuple[int, ...], dict] = {(0,) * len(images): {0: 1}}

    def image(exp):
        got = cache.get(exp)
        if got is None and (len(exp) != len(images) or min(exp) < 0 or sum(exp) > top):
            raise ValueError(f"image of {exp} requested; the images are built for q in N^{len(images)}, |q| <= {top}")
        chain = []
        while got is None:
            i = min((k for k, e in enumerate(exp) if e), key=sizes.__getitem__)
            chain.append((exp, i))
            exp = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
            got = cache.get(exp)
        for exp, i in reversed(chain):
            small, large = sorted((got, factors[i]), key=len)
            got = cache[exp] = {}
            for key, coef in small.items():
                term_times_into(got, large, key, coef)
        return got

    def decode(key):
        exp = []
        for lo in lows:
            e = (key - lo) % width + lo
            exp.append(e)
            key = (key - e) // width
        return tuple(reversed(exp))

    return image, decode


def substitute(poly, values, nvars: int) -> dict:
    """Compose an ordinary polynomial with polynomial values per
    variable: poly is a term dict with one exponent entry per value, and
    values are term dicts of exponent width nvars."""
    if any(len(exp) != len(values) for exp in poly):
        raise ValueError("value count mismatch")
    if any(e < 0 for exp in poly for e in exp):
        raise ValueError("substitute requires nonnegative exponents")
    if any(len(exp) != nvars for v in values for exp in v):
        raise ValueError(f"substitution values must have exponent width {nvars}")
    top = max(map(sum, poly), default=0)
    image, decode = monomial_images(values, nvars, top)
    total: dict[int, Fraction] = {}
    for exp, coef in poly.items():
        add_scaled_inplace(total, image(exp), coef)
    return {decode(key): coef for key, coef in total.items()}


# ---------------------------------------------------------------------------
# text format

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|/)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_terms(text: str, names) -> dict[tuple[int, ...], Fraction]:
    """Parse the shared text format into an exponent dict."""
    name_to_idx = {name: i for i, name in enumerate(names)}
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    width = len(names)
    terms: dict[tuple[int, ...], Fraction] = {}
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"unexpected end of polynomial text {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_int() -> int:
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        tok = take()
        if not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return sign * int(tok)

    def parse_factor(coef, exp):
        tok = take()
        if tok.isdigit():
            num = int(tok)
            if peek() == "/":
                take()
                den = take()
                if not den.isdigit() or not int(den):
                    raise ValueError(f"bad rational {tok}/{den}")
                return coef * Fraction(num, int(den)), exp
            return coef * num, exp
        if tok in name_to_idx:
            power = 1
            if peek() == "^":
                take()
                power = parse_int()
            idx = name_to_idx[tok]
            exp = exp[:idx] + (exp[idx] + power,) + exp[idx + 1 :]
            return coef, exp
        raise ValueError(f"unknown symbol {tok!r}")

    def parse_term(sign):
        coef = Fraction(sign)
        exp = (0,) * width
        coef, exp = parse_factor(coef, exp)
        while peek() == "*":
            take()
            coef, exp = parse_factor(coef, exp)
        if coef:
            cur = terms.get(exp, Fraction(0)) + coef
            if cur:
                terms[exp] = cur
            else:
                terms.pop(exp, None)

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    parse_term(sign)
    while pos < len(tokens):
        tok = take()
        if tok == "+":
            parse_term(1)
        elif tok == "-":
            parse_term(-1)
        else:
            raise ValueError(f"expected + or -, got {tok!r}")
    return terms


def exact_int(value) -> int:
    """value as an int, for the integer fields of the JSON payloads.
    int() would truncate 2.9 to 2 and read true as 1; here booleans,
    infinities and numbers with a fractional part raise ValueError."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        number = Fraction(value)
        if number.denominator == 1:
            return int(number)
    raise ValueError(f"expected an integer, got {value!r}")


def json_list(value, depth: int = 1) -> list:
    """value, checked to be a list of lists nested depth deep, for the
    list fields of the JSON payloads, where iterating a string would
    read its characters as entries; anything else raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    if depth > 1:
        for item in value:
            json_list(item, depth - 1)
    return value


def format_terms(terms, names) -> str:
    """Render an exponent dict in the shared text format, terms in
    descending (degree, exponent) order, negative exponent entries
    compared as plain integers."""
    if not terms:
        return "0"
    parts = []
    for exp, coef in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        factors = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            if e == 1:
                factors.append(names[i])
            else:
                factors.append(f"{names[i]}^{e}")
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)
