"""Stationary state of the two-parameter open-boundary TASEP.

The matrix-product weights f(tau) ~ L(prod_i (tau_i e1 + (1 - tau_i) e2)),
evaluated at rational (alpha, beta) as integer numerators over one common
denominator.  The equations that define L, L(e2 X) = beta L(X),
L(X e1) = alpha L(X) and L(U e1 e2 V) = alpha beta (L(U e1 V) + L(U e2 V)),
fill the weights of the 2^k states from those of the 2^(k-1) states one
site shorter (`stationary_numerators`), in any ring: over the integers at
a point, and over Z[alpha, beta] for a table's symbolic `weights`, which
are filled only when read.  The DEHP cancellation is why the fill is
exact over Z[alpha, beta] and not only at a point.  Z_L comes a second
way, as L of the power (e1+e2)^L in the shock ring, and the two must
agree: at every point, and term by term once per table for the symbolic
weights.  A table keeps the fill's integer list as it is, and one dict
keyed by the states for the probabilities.
`compare` certifies the normalized weights exactly on those integers:
with the rates scaled to integers, pi G = 0 at every state, sum(pi) = 1,
and the chain irreducible, so pi is the one stationary state; no
generator matrix is built and no linear system is solved.  States are
bit tuples with site 1 first, listed in the order of their little-endian
integer encoding (site 1 = least significant bit), the order of the
indices that `transitions` uses.
"""

import itertools
from fractions import Fraction

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import ALPHA, BETA, AB, eval_numerators, poly_sum, ratios
from .tensor import ShockElem, linear_form


def all_states(L):
    """The 2^L states in state_index order: the i-th state, read from
    site L down to site 1, is i in binary."""
    if L < 1:
        raise ValueError("L must be at least 1")
    return [s[::-1] for s in itertools.product((0, 1), repeat=L)]


def state_index(tau):
    return sum(bit << i for i, bit in enumerate(tau))


def _state_strings(L):
    """The 2^L states as strings of bits, site 1 first, in state_index
    order: the i-th is i in binary, read from site 1 (the lowest bit)."""
    fmt = f"0{L}b"
    return (format(i, fmt)[::-1] for i in range(1 << L))


def partition_Z(L):
    """Z_L = L((e1+e2)^L), with the power taken in the shock ring: time
    polynomial in L, no sum over the 2^L states."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return linear_form((ShockElem.generator(1) + ShockElem.generator(2))**L)


class StationaryTable:
    """The stationary distribution of L sites at rational (alpha, beta):
    the dict `probabilities` and the list `numerators` hold the states in
    all_states order."""

    __slots__ = ("L", "_weights", "Z", "alpha", "beta", "probabilities",
                 "numerators", "Z_numerator", "denominator")
    __hash__ = None

    def __init__(self, L, Z, alpha, beta, probabilities, numerators,
                 Z_numerator, denominator):
        self.L = L
        self._weights = None
        self.Z = Z                          # Poly2
        self.alpha = alpha                  # Fraction
        self.beta = beta                    # Fraction
        self.probabilities = probabilities  # state tuple -> Fraction
        # ints: the weights' values in state_index order, and
        # Z(alpha, beta), each times `denominator`
        self.numerators = numerators
        self.Z_numerator = Z_numerator
        self.denominator = denominator

    @property
    def weights(self):
        """state tuple -> Poly2, the symbolic weights, filled on first
        access by `stationary_numerators` over Z[alpha, beta] and kept once
        their sum equals Z term by term; the dict is this table's own."""
        if self._weights is None:
            weights = stationary_numerators(self.L, ALPHA, BETA, AB)
            if poly_sum(weights) != self.Z:
                raise RuntimeError("partition function paths disagree")
            self._weights = dict(zip(_partition(self.L)[0], weights))
        return self._weights

    def to_obj(self, symbolic=False):
        """The table as JSON-ready data.  The weights and Z are the
        symbolic Poly2s with `symbolic`, else their values at the point:
        the numerators over `denominator`, reduced by `ring.ratios`."""
        if symbolic:
            weights = [w.to_obj() for w in self.weights.values()]
            Z = self.Z.to_obj()
        else:
            *weights, Z = map(str, ratios(
                [*self.numerators, self.Z_numerator], self.denominator))
        rows = [{"state": state, "probability": str(p), "weight": w}
                for state, p, w in zip(_state_strings(self.L),
                                       self.probabilities.values(), weights)]
        return {
            "L": self.L,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "Z": Z,
            "states": rows,
        }


def require_positive_rates(a, b):
    """(a, b) as Fractions, refusing a rate that is not positive: only
    with both rates positive is the chain irreducible, with the one
    stationary state that the MPA weights describe."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DegenerateParameters(
            f"rates must be positive: alpha={a}, beta={b}")
    return a, b


def stationary_numerators(L, by_e1, by_e2, by_hop):
    """The 2^L weights in state_index order, filled by the equations that
    define L with the factors by_e1 for alpha, by_e2 for beta and by_hop
    for alpha beta, in any ring.  With (ALPHA, BETA, AB) they are the
    weights in Z[alpha, beta]; with (p s, r q, p r) they are the integer
    numerators of the weights at alpha = p/q, beta = r/s over (q s)^L.

    The weights of one site are [by_e2, by_e1].  Those of k sites come
    from those of k - 1 sites, N, one state at a time; x is a state of k
    sites, site 1 its lowest bit:
    - site 1 empty (x even): L(e2 X) = beta L(X), so M[x] = by_e2 N[x >> 1];
    - sites 1 and k occupied: L(X e1) = alpha L(X), so
      M[x] = by_e1 N[x - 2^(k-1)];
    - a run of t >= 1 occupied sites, then an empty one before site k:
      contracting that e1 e2, M[x] = by_hop (N[y] + N[y']), where y and y'
      drop the empty site and the last occupied one of the run.
    Every state falls under exactly one rule, so every entry of M is
    written."""
    if L < 1:
        raise ValueError("L must be at least 1")
    nums = [by_e2, by_e1]
    for k in range(2, L + 1):
        top = 1 << (k - 1)  # site k occupied
        half = top >> 1     # site k - 1 occupied
        new = [0] * (2 * top)
        new[0::2] = map(by_e2.__mul__, nums)
        new[top + 1::2] = map(by_e1.__mul__, nums[1::2])
        # runs of t <= k - 2 sites: site k of x, empty, is site k - 1 of
        # y and y', which lie below `half`
        low = nums[:half]
        for t in range(1, k - 1):
            run, step = (1 << t) - 1, 1 << t
            new[run:top:2 * step] = [by_hop * (u + v) for u, v in zip(
                low[run::step], low[run >> 1::step])]
        # sites 1..k-1 occupied, site k empty
        new[top - 1] = by_hop * (nums[top - 1] + nums[half - 1])
        nums = new
    return nums


# L -> (states, Z_L): what a table of L sites needs besides its weights.
_PARTITION = {}


def _partition(L):
    got = _PARTITION.get(L)
    if got is None:
        got = _PARTITION[L] = (tuple(all_states(L)), partition_Z(L))
    return got


def _point(L, a, b):
    """(states, Z_L, numerators of the weights, numerator of Z_L,
    denominator) at the positive rates a, b, all numerators over (q s)^L.
    Z's numerator is the shock-ring power evaluated, and the weights'
    numerators must sum to it."""
    states, Z = _partition(L)
    p, q = a.numerator, a.denominator
    r, s = b.numerator, b.denominator
    nums = stationary_numerators(L, p * s, r * q, p * r)
    (nz,), den = eval_numerators((Z,), a, b)
    scale = (q * s) ** L
    nz, rem = divmod(nz * scale, den)
    if rem or sum(nums) != nz:
        raise RuntimeError("partition function paths disagree")
    return states, Z, nums, nz, scale


def stationary_mpa(L, a, b):
    """Exact matrix-product stationary distribution at rational (a, b).

    `stationary_numerators` gives the 2^L weights as integer numerators
    over one common denominator, which cancels: the probabilities are the
    weights' numerators over Z's, all 2^L built eagerly here by
    `ring.ratios`, one gcd each.  Z_L is evaluated from the shock-ring
    power, a second path, and the numerators must sum to it at every
    call.  The table's symbolic weights are filled only when read, with
    their sum checked against Z_L term by term."""
    a, b = require_positive_rates(a, b)
    # Z(a, b) > 0: positive coefficients at positive rates
    states, Z, nums, nz, den = _point(L, a, b)
    return StationaryTable(L, Z, a, b, dict(zip(states, ratios(nums, nz))),
                           nums, nz, den)


def transitions(L):
    """Every transition i -> j of the chain over the state indices, as
    (i, j, k) with k indexing the rates (alpha, beta, 1): entry at site 1
    when it is empty, exit at site L when it is occupied, and a hop from
    an occupied site onto the next one when that is empty."""
    last = 1 << (L - 1)
    for i in range(1 << L):
        if not i & 1:
            yield i, i | 1, 0
        if i & last:
            yield i, i ^ last, 1
        for m in range(L - 1):
            if (i >> m) & 3 == 1:  # site m+1 occupied, site m+2 empty
                yield i, i ^ (3 << m), 2


def certify_stationary(L, a, b, n, nz):
    """Exact certificate that the integer numerators n (in all_states
    order) over nz are the stationary distribution of the chain of L
    sites at the rates a, b (Fractions): the numerators of the weights
    from `stationary_numerators` and of Z_L from the shock-ring power.

    With alpha = p/q and beta = r/s, the rates times q*s are the integers
    p*s, r*q and q*s, and pi is the numerators n_i over nz.  One pass over
    `transitions` gives the residual sum_i n_i R_ij of pi G = 0 at every
    state j, and the forward and backward edges of the chain.  Records the
    residual at every state, then sum(pi) = 1 as sum n_i = nz, then
    irreducibility: every state reaches the empty state and is reached
    from it.  Irreducibility makes the kernel of G one-dimensional, so a
    passing report proves pi is the unique stationary state; without it a
    chain with no transitions would pass the residual check vacuously."""
    q, s = a.denominator, b.denominator
    rates = (a.numerator * s, b.numerator * q, q * s)
    dim = len(n)
    residual = [0] * dim
    # transitions yields each edge once, so lists hold no repeat
    forward = [[] for _ in range(dim)]
    backward = [[] for _ in range(dim)]
    for i, j, k in transitions(L):
        flow = n[i] * rates[k]
        residual[j] += flow
        residual[i] -= flow
        forward[i].append(j)
        backward[j].append(i)
    rep = CheckReport(f"TASEP L={L} alpha={a} beta={b}")
    fmt = f"0{L}b"
    for i, r in enumerate(residual):
        # a label, as `_state_strings` writes it, only for a failing state
        rep.record(not r, r and "state " + format(i, fmt)[::-1])
    rep.record(sum(n) == nz, "probabilities sum to 1")
    rep.record(_reaches_all(backward) and _reaches_all(forward),
               "generator is irreducible")
    # residual_j / (nz q s) is (pi G)_j
    top = ratios((max(map(abs, residual)),), nz * q * s)[0]
    rep.note(f"max residual {top}")
    return rep


def _reaches_all(edges):
    """Whether a search from the empty state (index 0) along edges[i]
    visits every state."""
    seen = bytearray(len(edges))
    seen[0] = 1
    stack = [0]
    while stack:
        for j in edges[stack.pop()]:
            if not seen[j]:
                seen[j] = 1
                stack.append(j)
    return 0 not in seen


def compare(L, a, b):
    """Certify the matrix-product distribution as the stationary state of
    the chain, state by state and with no elimination, on the integer
    numerators of the weights and of Z_L, each from its own path: no
    probability is formed."""
    a, b = require_positive_rates(a, b)
    _, _, nums, nz, _ = _point(L, a, b)
    return certify_stationary(L, a, b, nums, nz)
