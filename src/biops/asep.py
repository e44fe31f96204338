"""Stationary state of the two-parameter open-boundary TASEP.

The matrix-product weights f(tau) ~ L(prod_i (tau_i e1 + (1 - tau_i) e2)),
evaluated at rational (alpha, beta) as integer numerators over one common
denominator.  The states, the weights, Z_L and a ring.Evaluator of them do
not depend on (alpha, beta): they are made once per L, so each new point
costs one product per distinct monomial and one multiply-add per term.
`compare` certifies the normalized weights exactly on those integers:
with the rates scaled to integers, pi G = 0 at every state, sum(pi) = 1,
and the chain irreducible, so pi is the one stationary state; no
generator matrix is built and no linear system is solved.  States are
bit tuples with site 1 first, listed in the order of their little-endian
integer encoding (site 1 = least significant bit), the order of the
indices that `transitions` uses.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import Evaluator, poly_sum
from .tensor import linear_forms, power_sum_form


def all_states(L):
    """The 2^L states in state_index order: the i-th state, read from
    site L down to site 1, is i in binary."""
    if L < 1:
        raise ValueError("L must be at least 1")
    return [s[::-1] for s in itertools.product((0, 1), repeat=L)]


def state_index(tau):
    return sum(bit << i for i, bit in enumerate(tau))


def partition_Z(L):
    """Z_L = L((e1+e2)^L), as the L-th power of e1 + e2 in the shock ring
    over integer coefficients: time polynomial in L, no sum over the 2^L
    states."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return power_sum_form(L)


class StationaryTable:
    """The stationary distribution of L sites at rational (alpha, beta);
    its dicts list the states in all_states order."""

    __slots__ = ("L", "weights", "Z", "alpha", "beta", "probabilities",
                 "numerators", "Z_numerator", "denominator")
    __hash__ = None

    def __init__(self, L, weights, Z, alpha, beta, probabilities,
                 numerators, Z_numerator, denominator):
        self.L = L
        self.weights = weights              # state tuple -> Poly2
        self.Z = Z                          # Poly2
        self.alpha = alpha                  # Fraction
        self.beta = beta                    # Fraction
        self.probabilities = probabilities  # state tuple -> Fraction
        # state tuple -> int: the weight's value times `denominator`, and
        # Z(alpha, beta) times `denominator`
        self.numerators = numerators
        self.Z_numerator = Z_numerator
        self.denominator = denominator

    def to_obj(self, symbolic=False):
        den = self.denominator
        rows = [{
            "state": "".join(map(str, tau)),
            "probability": str(self.probabilities[tau]),
            "weight": (self.weights[tau].to_obj() if symbolic
                       else str(Fraction(num, den))),
        } for tau, num in self.numerators.items()]
        return {
            "L": self.L,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "Z": (self.Z.to_obj() if symbolic
                  else str(Fraction(self.Z_numerator, den))),
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


# L -> its CheckedWeights, stored once the sum of the weights has been
# checked against Z_L.  Tuples, so no caller can change what the next
# call reads.
CheckedWeights = namedtuple("CheckedWeights", "states weights Z evaluate")
_CHECKED_WEIGHTS = {}


def _checked_weights(L):
    got = _CHECKED_WEIGHTS.get(L)
    if got is None:
        states = tuple(all_states(L))
        # occupied site -> e1, empty site -> e2, in site order
        words = [tuple(map((2, 1).__getitem__, tau)) for tau in states]
        values = linear_forms(words)
        weights = tuple(values[w] for w in words)
        Z = partition_Z(L)
        if poly_sum(weights) != Z:
            raise RuntimeError("partition function paths disagree")
        got = _CHECKED_WEIGHTS[L] = CheckedWeights(
            states, weights, Z, Evaluator([Z, *weights]))
    return got


def stationary_mpa(L, a, b):
    """Exact matrix-product stationary distribution at rational (a, b).

    One call of the Evaluator of [Z_L, *weights] gives Z_L and the 2^L
    weights as integer numerators over one common denominator, which
    cancels: each probability is one normalization of two integers.  Z_L
    comes two ways, as the sum of the weights and as the shock-ring power,
    and the two must agree term by term; that check runs on the first call
    for each L, before the Evaluator is compiled and kept."""
    a, b = require_positive_rates(a, b)
    states, weights, Z, evaluate = _checked_weights(L)
    # Z(a, b) > 0: positive coefficients at positive rates
    (nz, *nums), den = evaluate(a, b)
    return StationaryTable(
        L, dict(zip(states, weights)), Z, a, b,
        dict(zip(states, map(Fraction, nums, itertools.repeat(nz)))),
        dict(zip(states, nums)), nz, den)


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
    and of Z_L that one `evaluate` call of `_checked_weights` gives.

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
    forward = [set() for _ in range(dim)]
    backward = [set() for _ in range(dim)]
    for i, j, k in transitions(L):
        flow = n[i] * rates[k]
        residual[j] += flow
        residual[i] -= flow
        forward[i].add(j)
        backward[j].add(i)
    rep = CheckReport(f"TASEP L={L} alpha={a} beta={b}")
    for tau, r in zip(all_states(L), residual):
        rep.record(r == 0, "state " + "".join(map(str, tau)))
    rep.record(sum(n) == nz, "probabilities sum to 1")
    rep.record(_reaches_all(backward) and _reaches_all(forward),
               "generator is irreducible")
    # residual_j / (nz q s) is (pi G)_j
    rep.note(f"max residual {Fraction(max(map(abs, residual)), nz * q * s)}")
    return rep


def _reaches_all(edges):
    """Whether a search from the empty state (index 0) along edges[i]
    visits every state."""
    seen, stack = {0}, [0]
    while stack:
        for j in edges[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == len(edges)


def compare(L, a, b):
    """Certify the matrix-product distribution as the stationary state of
    the chain, state by state and with no elimination, on the integer
    numerators of one evaluation: no probability is formed."""
    a, b = require_positive_rates(a, b)
    (nz, *nums), _ = _checked_weights(L).evaluate(a, b)
    return certify_stationary(L, a, b, nums, nz)
