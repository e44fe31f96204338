"""Stationary state of the two-parameter open-boundary TASEP.

The matrix-product weights f(tau) ~ L(prod_i (tau_i e1 + (1 - tau_i) e2))
and the sparse continuous-time Markov generator G over the 2^L states.
`compare` certifies the normalized weights exactly: pi G = 0 at every
state, sum(pi) = 1, and G irreducible, so pi is the one stationary state;
no linear system is solved.  States are bit tuples with site 1 first; the
integer encoding is little-endian (site 1 = least significant bit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import Poly2
from .tensor import E1, E2, TensorElem, linear_form, linear_forms, normal_order


def all_states(L):
    if L < 1:
        raise ValueError("L must be at least 1")
    return [s for s in itertools.product((0, 1), repeat=L)]


def state_index(tau):
    return sum(bit << i for i, bit in enumerate(tau))


def state_from_index(idx, L):
    return tuple((idx >> i) & 1 for i in range(L))


def state_word(tau):
    # occupied site -> e1, empty site -> e2, in site order
    return tuple(1 if bit else 2 for bit in tau)


def mpa_weight(tau):
    """Unnormalized symbolic stationary weight of a configuration."""
    return linear_form(TensorElem.from_word(state_word(tau)))


def partition_Z(L):
    """Z_L = L((e1+e2)^L), as the L-th power of e1 + e2 in the shock ring:
    time polynomial in L, no sum over the 2^L states."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return linear_form(normal_order(E1 + E2) ** L)


@dataclass
class StationaryTable:
    L: int
    weights: dict       # state tuple -> Poly2
    Z: Poly2
    alpha: Fraction
    beta: Fraction
    probabilities: dict  # state tuple -> Fraction

    def to_obj(self, symbolic=False):
        rows = []
        for tau in sorted(self.weights, key=state_index):
            row = {
                "state": "".join(str(b) for b in tau),
                "probability": str(self.probabilities[tau]),
            }
            if symbolic:
                row["weight"] = self.weights[tau].to_obj()
            else:
                row["weight"] = str(self.weights[tau].eval(self.alpha, self.beta))
            rows.append(row)
        return {
            "L": self.L,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "Z": self.Z.to_obj() if symbolic else str(self.Z.eval(self.alpha, self.beta)),
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


def stationary_mpa(L, a, b):
    """Exact matrix-product stationary distribution at rational (a, b)."""
    a, b = require_positive_rates(a, b)
    words = {tau: state_word(tau) for tau in all_states(L)}
    values = linear_forms(words.values())
    weights = {tau: values[w] for tau, w in words.items()}
    Z = partition_Z(L)
    # two paths to Z_L: the sum of the weights and the shock-ring power
    if sum(weights.values(), Poly2.const(0)) != Z:
        raise RuntimeError("partition function paths disagree")
    zval = Z.eval(a, b)  # > 0: positive coefficients at positive rates
    probs = {tau: w.eval(a, b) / zval for tau, w in weights.items()}
    return StationaryTable(L, weights, Z, a, b, probs)


@dataclass
class Generator:
    """Sparse continuous-time Markov generator over the 2^L states."""

    L: int
    alpha: Fraction
    beta: Fraction
    dim: int
    rates: list  # rates[i] = dict j -> Fraction, including the diagonal

    def row_sum(self, i):
        return sum(self.rates[i].values(), Fraction(0))


def build_generator(L, a, b):
    """Transitions: entry at site 1 (rate alpha) if empty, exit at site L
    (rate beta) if occupied, hop i -> i+1 (rate 1) when (occupied, empty)."""
    if L < 1:
        raise ValueError("L must be at least 1")
    a, b = require_positive_rates(a, b)
    dim = 1 << L
    rates = [dict() for _ in range(dim)]
    for idx in range(dim):
        tau = state_from_index(idx, L)
        row = rates[idx]
        out = Fraction(0)

        def add(target, rate):
            nonlocal out
            row[target] = row.get(target, Fraction(0)) + rate
            out += rate

        if tau[0] == 0:
            add(idx | 1, a)
        if tau[L - 1] == 1:
            add(idx & ~(1 << (L - 1)), b)
        for i in range(L - 1):
            if tau[i] == 1 and tau[i + 1] == 0:
                add((idx & ~(1 << i)) | (1 << (i + 1)), Fraction(1))
        row[idx] = row.get(idx, Fraction(0)) - out
    return Generator(L, a, b, dim, rates)


def certify_stationary(g, probabilities):
    """Exact certificate that `probabilities` (state tuple -> Fraction) is
    the stationary distribution of the generator g.

    Records (pi G)_tau = 0 at every state tau, from one pass over g's
    sparse rows, then sum(pi) = 1, then irreducibility: every state
    reaches the empty state and is reached from it along g's off-diagonal
    entries.  Irreducibility makes the kernel of G one-dimensional, so a
    passing report proves pi is the unique stationary state; without it a
    zero generator would pass the residual check vacuously."""
    rep = CheckReport(f"TASEP L={g.L} alpha={g.alpha} beta={g.beta}")
    residual = [Fraction(0)] * g.dim
    forward = [set() for _ in range(g.dim)]
    backward = [set() for _ in range(g.dim)]
    for i, row in enumerate(g.rates):
        p = probabilities[state_from_index(i, g.L)]
        for j, r in row.items():
            residual[j] += p * r
            if j != i and r:
                forward[i].add(j)
                backward[j].add(i)
    for tau in all_states(g.L):
        rep.record(residual[state_index(tau)] == 0,
                   "state " + "".join(map(str, tau)))
    rep.record(sum(probabilities.values()) == 1, "probabilities sum to 1")
    rep.record(_reaches_all(backward) and _reaches_all(forward),
               "generator is irreducible")
    rep.note(f"max residual {max(map(abs, residual))}")
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
    the Markov generator, state by state and with no elimination."""
    table = stationary_mpa(L, a, b)
    return certify_stationary(build_generator(L, a, b), table.probabilities)
