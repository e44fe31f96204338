import random

import pytest
from hypothesis import given, settings, strategies as st

from biops.ring import (Poly2, ZERO, ONE, ALPHA, BETA, AB, KappaElem, K_ZERO,
                        K_ONE, KAPPA)
from biops.tensor import TensorElem, E1, E2, linear_form
from biops.asep import partition_Z
from biops.biortho import (MomentBand, first_moment_matrices, lambda_n,
                           p_explicit, q_explicit, sqrt_lambda)
from biops.expr import parse, eval_expr, Sum
from biops import checks, matrep, tensor
from biops.matrep import (GENERATOR_REPS, generator_matrices, represent,
                          similarity_check, Picture, RepMatrix,
                          second_moment, second_moment_product, cheb_like,
                          cheb_reading_report)
from biops.checks import (check_diffusion_relation, check_two_path_L,
                          random_tensor)
from biops.errors import TruncationTooSmall
from oracles import (eval_L_matrix, long_div, max_word_len, power_sum,
                     pq_rep, tensor_ast, word_fold, principal_minor_polys)
from test_expr import random_ast


class TestGenerators:
    def test_hat_matches_closed_form_bands(self):
        dim = 6
        _, _, _, _, Xhat, Yhat = first_moment_matrices(dim)
        g1, g2 = generator_matrices(dim, "hat")
        for i in range(dim):
            for j in range(dim):
                assert g1.entry(i, j) == Xhat.entry(i, j)
                assert g2.entry(i, j) == Yhat.entry(i, j)

    def test_hat_band_values(self):
        g1, g2 = generator_matrices(4, "hat")
        assert g1.entry(0, 0) == KappaElem(ALPHA)
        assert g1.entry(1, 1) == KappaElem(AB)
        assert g1.entry(0, 1) == KAPPA
        assert g1.entry(1, 2) == KappaElem(AB)
        assert g1.entry(1, 0) == K_ZERO
        assert g2.entry(0, 0) == KappaElem(BETA)
        assert g2.entry(1, 0) == KAPPA
        assert g2.entry(2, 1) == KappaElem(AB)
        assert g2.entry(0, 1) == K_ZERO

    def test_bar_pictures_kappa_free_where_expected(self):
        # bar_col has a kappa-free superdiagonal in gen1 and kappa^2 scaled
        # subdiagonal in gen2; bar_row is the mirror image
        g1, g2 = generator_matrices(5, "bar_col")
        assert g1.entry(0, 1) == K_ONE
        assert g2.entry(1, 0) == KAPPA * KAPPA
        h1, h2 = generator_matrices(5, "bar_row")
        assert h2.entry(1, 0) == K_ONE
        assert h1.entry(0, 1) == KAPPA * KAPPA

    def test_bar_ratios_are_lambda_ratios(self):
        # the scaled off-diagonal of each bar picture is
        # Lambda_{k+1}/Lambda_k, by multiplication and by long division
        _, y_col = generator_matrices(17, "bar_col")
        x_row, _ = generator_matrices(17, "bar_row")
        assert (y_col.kind, x_row.kind) == ("Ybar_col", "Xbar_row")
        for ratios in (y_col.sub, x_row.sup):
            assert len(ratios) == 16
            for k, r in enumerate(ratios):
                assert not r.b
                assert lambda_n(k) * r.a == lambda_n(k + 1)
                assert r.a == long_div(lambda_n(k + 1), lambda_n(k))

    def test_unknown_rep_rejected(self):
        with pytest.raises(ValueError):
            generator_matrices(4, "tilde")

    def test_similarity(self):
        rep = similarity_check(6)
        assert not rep.failures
        assert rep.summary().startswith("PASS")


class TestRepresent:
    def test_unit_is_identity(self):
        r = represent(parse("1"), 4)
        for i in range(4):
            for j in range(4):
                assert r.entry(i, j) == (K_ONE if i == j else K_ZERO)

    def test_diffusion_relation_vanishes(self):
        rel = parse("e1*e2 - a*b*(e1 + e2)")
        for dim in (4, 8, 12):
            r = represent(rel, dim)
            assert r.valid_block == dim - 2
            for i in range(r.valid_block):
                for j in range(r.valid_block):
                    assert not r.entry(i, j)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            represent(parse("e1*e2"), 3)
        r = represent(parse("e1*e2"), 5)
        with pytest.raises(TruncationTooSmall):
            r.entry(3, 0)
        with pytest.raises(TruncationTooSmall):
            r.entry(0, 3)

    def test_negative_index_rejected(self):
        # index -1 would wrap to the last stored row, outside the valid block
        r = represent(parse("e1*e2"), 5)
        for i, j in ((-1, 0), (0, -1), (-3, -3)):
            with pytest.raises(IndexError):
                r.entry(i, j)

    def test_type_guard(self):
        # an expression AST only: a TensorElem is not evaluated
        for x in (ALPHA, E1 * E2):
            with pytest.raises(TypeError):
                represent(x, 4)

    def test_two_path_L_random(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_tensor(rng, max_len=8)
            assert eval_L_matrix(x) == linear_form(x)

    @pytest.mark.parametrize("rep", GENERATOR_REPS)
    def test_corner_is_L_in_every_picture(self, rep):
        # the pictures are diagonal-similar with D[0][0] = 1
        rng = random.Random(11)
        for _ in range(40):
            x = random_tensor(rng, max_len=6)
            dim = max_word_len(x) + 2 + rng.randint(0, 3)
            r = represent(tensor_ast(x), dim, rep)
            assert r.entry(0, 0) == KappaElem(linear_form(x))

    def test_power_sums(self):
        # row e_0 folded over all 2^L words against the shock-ring power
        for L in range(9):
            assert eval_L_matrix(power_sum(L)) == partition_Z(L), L

    def test_two_path_L_examples(self):
        assert eval_L_matrix(E1) == ALPHA
        assert eval_L_matrix(E2) == BETA
        assert eval_L_matrix(E1 * E2) == AB * (ALPHA + BETA)
        assert eval_L_matrix(E2 * E1) == AB


class TestPQRep:
    def test_identity_at_zero(self):
        for which in ("P", "Q"):
            r = pq_rep(0, which, 4)
            for i in range(4):
                for j in range(4):
                    assert r.entry(i, j) == (K_ONE if i == j else K_ZERO)

    def test_band_pattern(self):
        r = pq_rep(2, "P", 6)
        assert r.entry(0, 2) == K_ONE
        assert r.entry(1, 3) == K_ONE
        assert r.entry(1, 2) == KappaElem(ALPHA * (BETA - 1))
        # the j >= n cutoff kills the (0, 1) entry
        assert r.entry(0, 1) == K_ZERO
        assert r.entry(0, 0) == K_ZERO
        q = pq_rep(2, "Q", 6)
        assert q.entry(2, 0) == K_ONE
        assert q.entry(2, 1) == KappaElem(BETA * (ALPHA - 1))
        assert q.entry(1, 0) == K_ZERO

    def test_matches_represent(self):
        dim = 8
        for n in range(4):
            p = represent(parse(f"P({n})"), dim, "bar_col")
            q = represent(parse(f"Q({n})"), dim, "bar_row")
            bp = pq_rep(n, "P", dim)
            bq = pq_rep(n, "Q", dim)
            vb = min(p.valid_block, bp.valid_block)
            for i in range(vb):
                for j in range(vb):
                    assert p.entry(i, j) == bp.entry(i, j), (n, i, j)
                    assert q.entry(i, j) == bq.entry(i, j), (n, i, j)

    def test_extraction_identity(self):
        # (P_n A Q_m)[0][0] picks out A[n][m] for any matrix A
        rng = random.Random(3)
        dim = 7
        for _ in range(10):
            n, m = rng.randint(0, 4), rng.randint(0, 4)
            A = [[KappaElem(Poly2.const(rng.randint(-3, 3)))
                  for _ in range(dim)] for _ in range(dim)]
            P = pq_rep(n, "P", dim)
            Q = pq_rep(m, "Q", dim)
            got = K_ZERO
            for k in range(dim):
                if not P.raw(0, k):
                    continue
                for l in range(dim):
                    got = got + P.raw(0, k) * A[k][l] * Q.raw(l, 0)
            assert got == A[n][m]

    def test_errors(self):
        with pytest.raises(TruncationTooSmall):
            pq_rep(3, "P", 4)
        with pytest.raises(ValueError):
            pq_rep(1, "R", 5)
        with pytest.raises(ValueError):
            pq_rep(-1, "P", 5)


class TestMatrixMoment:
    # G = represent(g) holds the matrix moments L(Phat_n g Qhat_m), that
    # is L(P_n g Q_m) / sqrt(Lambda_n Lambda_m), in its valid block
    def test_two_path(self):
        for src in ("1", "e1", "e2", "e1*e2", "e2*e1"):
            g = eval_expr(parse(src), TensorElem)
            G = represent(parse(src), 3 + max_word_len(g) + 2)
            for n in range(4):
                for m in range(4):
                    lhs = linear_form(p_explicit(n).into(TensorElem) * g
                                      * q_explicit(m).into(TensorElem))
                    rhs = G.entry(n, m) * sqrt_lambda(n) * sqrt_lambda(m)
                    assert KappaElem(lhs) == rhs, (n, m)

    def test_first_moment_example(self):
        G = represent(parse("e1"), 3)
        assert G.entry(0, 1) == KAPPA
        assert G.entry(0, 0) == KappaElem(ALPHA)


class TestSecondMoment:
    def test_displayed_entries(self):
        w = second_moment(4)
        assert w.entry(0, 0) == KappaElem(AB * (ALPHA + BETA))
        assert w.entry(0, 1) == KappaElem(ZERO, AB)
        assert w.entry(1, 0) == KappaElem(ZERO, AB)
        assert w.entry(1, 1) == KappaElem(2 * AB * AB)
        assert w.entry(1, 2) == KappaElem(AB * AB)
        assert w.entry(0, 2) == K_ZERO

    @pytest.mark.parametrize("dim", [4, 6, 10])
    def test_equals_product(self, dim):
        w = second_moment(dim)
        prod = second_moment_product(dim)
        assert prod.valid_block == dim - 2
        for i in range(prod.valid_block):
            for j in range(prod.valid_block):
                assert w.entry(i, j) == prod.entry(i, j)

    def test_symmetry(self):
        w = second_moment(8)
        for i in range(8):
            for j in range(8):
                assert w.raw(i, j) == w.raw(j, i)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            second_moment(2)


class TestChebLike:
    def test_degrees_and_leading(self):
        for n, p in enumerate(cheb_like(5)):
            assert len(p) == n + 1
            assert p[-1] == K_ONE

    def test_corrected_matches_minor_oracle(self):
        oracle = principal_minor_polys(6)
        polys = cheb_like(6, "corrected")
        for n in range(7):
            assert list(polys[n]) == list(oracle[n]), n

    def test_printed_diverges(self):
        oracle = principal_minor_polys(3)
        polys = cheb_like(3, "printed")
        assert any(list(polys[n]) != list(oracle[n]) for n in range(4))

    def test_report(self):
        rep = cheb_reading_report(4)
        assert not rep.failures
        assert "corrected" in " ".join(rep.notes)

    def test_report_stops_at_six(self):
        assert cheb_reading_report(20).name.endswith("n <= 6")

    @pytest.mark.parametrize("row, col, shift", [
        (2, 2, 1),                  # W_22 off by 1
        (1, 2, KappaElem(AB * AB)),  # W_12 W_21 off by (ab)^4
        (5, 6, KappaElem(AB * AB)),  # only the Favard norm of T_6 reads W_56
    ])
    def test_report_fails_on_a_wrong_W(self, monkeypatch, row, col, shift):
        # the moments come from L, so a W that is not L's second moment
        # fails the corrected reading even though its recurrence is exact
        exact = matrep.second_moment

        def wrong(dim):
            w = exact(dim)
            w.rows[row][col] = w.rows[row][col] + shift
            return w

        monkeypatch.setattr(matrep, "second_moment", wrong)
        rep = cheb_reading_report(6)
        assert rep.failures == ["corrected reading must match the oracle"]

    def test_moments_are_powers_of_W(self):
        # L((e1 e2)^k) = ((W^k))_00, and e1 e2 = ab (e1 + e2) makes it
        # (ab)^k Z_k; mu here is L of the word, folded letter by letter
        for k in range(13):
            mu = linear_form(TensorElem({(1, 2) * k: ONE}))
            assert (second_moment(k // 2 + 3) ** k).entry(0, 0) == mu, k
            assert AB ** k * partition_Z(k) == mu, k

    def test_report_at_zero(self):
        # T_0 = 1 under both readings: nothing to tell them apart yet
        rep = cheb_reading_report(0)
        assert rep.ok
        assert "N = 0" in " ".join(rep.notes)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cheb_like(3, "guessed")
        with pytest.raises(ValueError):
            cheb_like(-1)


class TestPicture:
    """represent evaluates an expression in the truncated matrices of a
    picture; the word fold of its TensorElem value is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    def test_equals_word_fold(self, rng, extra):
        node = random_ast(rng)
        try:
            degree = represent(node, 10).degree
        except TruncationTooSmall:
            return  # formal degree above 8: 2^9 words or more
        x = eval_expr(node, TensorElem)
        dim = degree + 2 + extra
        try:
            represent(node, dim)
        except TruncationTooSmall:
            # every product is checked, also one of higher degree whose
            # power 0 leaves the expression of lower degree
            dim = 10
        for rep in GENERATOR_REPS:
            r = represent(node, dim, rep)
            assert r.valid_block == dim - degree <= dim - max_word_len(x)
            assert ([[r.raw(i, j) for j in range(dim)] for i in range(dim)]
                    == word_fold(x, dim, rep))

    def test_formal_degree_bounds_the_block(self):
        # the longest words cancel, yet the block follows the formal degree
        r = represent(parse("e1^3 - e1^3"), 6)
        assert r.valid_block == 3
        assert not any(r.raw(i, j) for i in range(6) for j in range(6))
        for src, dim in (("e1^3 - e1^3", 4), ("0*e2", 2), ("e1", 2)):
            with pytest.raises(TruncationTooSmall):
                represent(parse(src), dim)
        assert represent(parse("P(0)"), 2).valid_block == 2
        assert represent(Sum(()), 4).valid_block == 4  # scalar(0), degree 0
        assert represent(parse("(e1*e2)^0"), 4).valid_block == 4
        with pytest.raises(TruncationTooSmall):
            represent(parse("(e1*e2)^0"), 3)

    def test_degree_checked_before_any_product(self, monkeypatch):
        products = []
        mul = RepMatrix.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(RepMatrix, "__mul__", counted)
        with pytest.raises(TruncationTooSmall):
            represent(parse("e1^3000"), 16)
        assert products == []
        with pytest.raises(TruncationTooSmall):
            represent(parse("P(20)"), 16)

    @pytest.mark.parametrize("rep", GENERATOR_REPS)
    def test_horner_takes_one_product_per_degree(self, monkeypatch, rep):
        # P(n) and Q(n) take n products, each of matrices of degree >= 0
        products = []
        mul = RepMatrix.__mul__

        def counted(self, other):
            products.append((self.degree, other.degree))
            return mul(self, other)

        monkeypatch.setattr(RepMatrix, "__mul__", counted)
        for n in range(7):
            for src in (f"P({n})", f"Q({n})"):
                products.clear()
                r = represent(parse(src), n + 2, rep)
                assert r.degree == n and len(products) == n, src
                assert all(d >= 0 for pair in products for d in pair), src

    @pytest.mark.parametrize("src, dim, count", [
        ("P(2)*Q(2)*P(2) + a*b*e2^4 + 3*Q(1)", 14, 15),
        ("P(3)*e1*Q(2)", 8, 7),
        ("e1^3", 8, 2),
    ])
    def test_no_product_by_the_identity(self, monkeypatch, src, dim, count):
        # a product folds from its first factor and a power from its base,
        # so no matrix product has an identity start (19, 8 and 3 products
        # when both started from the identity); Horner's monic start stays
        want = represent(parse(src), dim)
        products = []
        mul = RepMatrix.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(RepMatrix, "__mul__", counted)
        got = represent(parse(src), dim)
        assert len(products) == count
        assert got.to_obj() == want.to_obj()

    def test_power_zero_and_one(self):
        x = Picture(6).generator(1)
        assert (x ** 1) is x
        one = x ** 0
        assert one.degree == 0
        assert one.to_obj() == Picture(6).scalar(1).to_obj()

    def test_algebra_products(self):
        # Picture is the algebra eval_expr maps into: generators and
        # scalars, combined by the RepMatrix operators
        pic = Picture(7, "bar_col")
        x, y = pic.generator(1), pic.generator(2)
        got = (x * y * 3 - (pic.scalar(ALPHA) * x) ** 2 + pic.scalar(0)
               - pic.scalar(1))
        want = represent(parse("3*e1*e2 - (a*e1)^2 - 1"), 7, "bar_col")
        assert got.degree == want.degree == 2
        assert got.to_obj() == want.to_obj()
        for bad in (-1, 0.5):
            with pytest.raises(ValueError):
                x ** bad
        for i in (0, 3):
            with pytest.raises(ValueError):
                pic.generator(i)


class TestCheckSuites:
    """The `check` suites that tie L to its definition: normal ordering
    against the Corteel-Williams fill, and the hat picture's boundary rows
    and relation.  Each must fail on wrong data."""

    def test_two_path_L_passes(self):
        for seed in range(20):
            rep = check_two_path_L(seed)
            assert (rep.ok, rep.checked) == (True, 50), seed

    def test_two_path_L_fails_on_a_wrong_fill(self, monkeypatch):
        exact = checks.stationary_numerators

        def wrong(L, *factors):
            nums = exact(L, *factors)
            return [w + 1 for w in nums] if L == 5 else nums

        monkeypatch.setattr(checks, "stationary_numerators", wrong)
        assert not check_two_path_L().ok

    def test_two_path_L_fails_on_a_wrong_suffix_sum(self, monkeypatch):
        # x*e2 with the coefficient S_1 of e1 off by one
        exact = tensor._times_e2

        def wrong(t):
            out = exact(t)
            if (0, 1) in out:
                out[(0, 1)] += 1
            return out

        monkeypatch.setattr(tensor, "_times_e2", wrong)
        assert not check_two_path_L().ok

    def test_diffusion_report(self):
        rep = check_diffusion_relation()
        assert (rep.ok, rep.checked) == (True, 124)

    @pytest.mark.parametrize("which, label", [("X", "X[1][0]"),
                                              ("Y", "Y[0][1]")])
    def test_diffusion_fails_off_the_boundary_rows(self, monkeypatch, which,
                                                   label):
        # a nonzero (1, 0) entry of the hat X, or (0, 1) entry of the hat Y
        exact = matrep.generator_matrices

        def wrong(dim, rep="hat"):
            x, y = exact(dim, rep)
            if which == "X":
                x = MomentBand(x.kind, dim, x.diag, x.sup,
                               (x.sub[0] + 1,) + x.sub[1:])
            else:
                y = MomentBand(y.kind, dim, y.diag,
                               (y.sup[0] + 1,) + y.sup[1:], y.sub)
            return x, y

        monkeypatch.setattr(matrep, "generator_matrices", wrong)
        assert label in check_diffusion_relation().failures
