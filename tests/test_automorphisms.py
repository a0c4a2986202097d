import json
import random
from fractions import Fraction
from math import gcd

import pytest

from weyltype import (
    BlockMatrix,
    Character,
    FunctionalAut,
    InnerExp,
    Lattice,
    NormalFormAut,
    ShiftV,
    Sigma1,
    Signature,
    TauAut,
    apply_sigma1,
    compose_automorphisms,
    compose_normal_forms,
    conjugated_shift,
    decompose_automorphism,
    verify_automorphism,
)
from weyltype import automorphisms, linalg
from weyltype.algebra import Element, Monomial, act_on_A
from weyltype.lattice import adapted_basis, lattice_motion
from weyltype.classification import iso_search_bounded
from weyltype.automorphisms import (
    MODE_ASSOC,
    MODE_LIE,
    generator_element,
    generator_keys,
    random_normal_form_aut,
)
from weyltype.errors import (
    InvariantViolation,
    LatticeNotMapped,
    NotAnAutomorphism,
    NotInA,
    Sigma1NotSupported,
)
from weyltype.sampling import (
    random_A_element,
    random_aut2,
    random_character,
    random_coefficient,
    random_element,
    random_shift_vector,
)


def _ad_series(u, w):
    """sum_k (ad u)^k(w) / k!, truncated once (ad u)^k(w) vanishes."""
    term = total = w
    for k in range(1, (w.max_level() or 0) + 2):
        term = u.bracket(term) / k
        total = total + term
    assert term.is_zero
    return total


class TestTauAut:
    def test_identity_map(self, desk):
        rng = random.Random(0)
        tau = TauAut.identity(desk)
        for _ in range(10):
            w = random_element(desk, rng)
            assert tau.apply(w) == w

    def test_negation_matrix(self, w01):
        tau = TauAut(w01, BlockMatrix(0, 1, [[-1]]), Character.trivial(w01.lattice))
        assert tau.apply(w01.x((1,))) == w01.x((-1,))
        assert tau.apply(w01.d(1)) == -w01.d(1)

    def test_character_scaling(self, w01):
        tau = TauAut(w01, BlockMatrix(0, 1, [[1]]), Character(w01.lattice, [2]))
        for n in range(-3, 4):
            assert tau.apply(w01.x((n,))) == w01.x((n,), coeff=Fraction(2) ** n)

    def test_requires_lattice_stabilizer(self, z2):
        with pytest.raises(LatticeNotMapped, match=r"basis row \(1, 0\) \. G\^-1 = \(1/2, 0\) "):
            TauAut(z2, BlockMatrix(1, 1, [[2, 0], [0, 1]]),
                   Character.trivial(z2.lattice))

    def test_images_built_on_first_apply(self, desk, monkeypatch):
        monkeypatch.setattr(automorphisms, "_tau_table", None)
        tau = TauAut(desk, BlockMatrix(1, 1, [[-1, 0], [0, 1]]),
                     Character(desk.lattice, [2, 3]))
        tau.inverse().compose(tau)

    def test_inverse_and_compose(self, desk):
        rng = random.Random(1)
        for _ in range(5):
            tau = TauAut(desk, random_aut2(desk, rng),
                         random_character(desk.lattice, rng))
            inv = tau.inverse()
            w = random_element(desk, rng)
            assert inv.apply(tau.apply(w)) == w
            other = TauAut(desk, random_aut2(desk, rng),
                           random_character(desk.lattice, rng))
            composed = tau.compose(other)
            assert composed.apply(w) == tau.apply(other.apply(w))

    def test_preserves_product_and_bracket(self, desk):
        rng = random.Random(2)
        tau = TauAut(desk, random_aut2(desk, rng), random_character(desk.lattice, rng))
        assert verify_automorphism(tau, trials=100, seed=3, mode=MODE_ASSOC).passed
        assert verify_automorphism(tau, trials=100, seed=3, mode=MODE_LIE).passed


RANK4 = Signature(2, 2, Lattice(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                     (Fraction(1, 2), 0, Fraction(1, 3), Fraction(1, 2))]))


def _aut2_generators(sig):
    """Fixed members of Aut2(Gamma): A^{-1} U A for the E1-adapted basis A and
    block lower-triangular integer U, a sign flip or a transvection per slot
    pair (row r may add row t only when r >= l1 or t < l1)."""
    A = adapted_basis(sig.lattice, sig.ell1)
    a_inv = linalg.mat_inverse(A)

    def unit(r, t, value):
        U = [list(row) for row in linalg.integer_identity(sig.ell)]
        U[r][t] = value
        return U

    units = [unit(r, r, -1) for r in range(sig.ell)]
    units += [unit(r, t, 1) for r in range(sig.ell) for t in range(sig.ell)
              if t != r and (r >= sig.ell1 or t < sig.ell1)]
    return [BlockMatrix(sig.ell1, sig.ell2, linalg.mat_mul(a_inv, linalg.mat_mul(U, A)))
            for U in units]


def _ref_inverse_character(tau):
    """f'(b_k) = 1 / f(b_k . G), with b_k . G solved in Fraction coordinates."""
    lattice = tau.signature.lattice
    return Character(lattice, [1 / tau.f.evaluate(linalg.vec_mat(b, tau.G.entries))
                               for b in lattice.basis])


def _ref_compose_character(a, b):
    """(a after b)(b_k) = f_b(b_k) f_a(b_k . G_b^{-1}), in Fraction coordinates."""
    lattice = a.signature.lattice
    g_inv = linalg.mat_inverse(b.G.entries)
    return Character(lattice, [b.f.evaluate(bk) * a.f.evaluate(linalg.vec_mat(bk, g_inv))
                               for bk in lattice.basis])


def _unscaled(scaled):
    """The Fraction matrix K / den of a (den, K) pair."""
    den, rows = scaled
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


class TestIntegerTau:
    """TauAut keeps the integer lattice matrix N through compose and inverse."""

    @pytest.fixture(params=["desk", "rank3", "rank4"])
    def sig(self, request):
        return RANK4 if request.param == "rank4" else request.getfixturevalue(request.param)

    def test_chains_keep_lattice_matrix_and_character(self, sig):
        rng = random.Random(60)
        gens = _aut2_generators(sig)
        tau = TauAut.identity(sig)
        for _ in range(12):
            step = rng.randrange(3)
            if step == 2:
                result, want_f = tau.inverse(), _ref_inverse_character(tau)
            else:
                other = TauAut(sig, rng.choice(gens), random_character(sig.lattice, rng))
                a, b = (tau, other) if step else (other, tau)
                result, want_f = a.compose(b), _ref_compose_character(a, b)
            assert result.N == lattice_motion(sig.lattice, sig.lattice, result.G)
            assert all(type(x) is int for row in result.N for x in row)
            assert result.f == want_f
            tau = result
        assert not tau.is_identity()
        assert tau.compose(tau.inverse()).is_identity()

    def test_chains_derive_G_and_mt_inverse(self, sig):
        """G and (M^t)^{-1}, derived from the integer N^{-1} and N, equal the
        Fraction group law: G multiplies left to right and inverts with tau."""
        rng = random.Random(62)
        gens = _aut2_generators(sig)
        tau, want = TauAut.identity(sig), linalg.identity(sig.ell)
        for _ in range(12):
            step = rng.randrange(3)
            if step == 2:
                tau, want = tau.inverse(), linalg.mat_inverse(want)
            else:
                G = rng.choice(gens)
                other = TauAut(sig, G, random_character(sig.lattice, rng))
                if step:
                    tau, want = tau.compose(other), linalg.mat_mul(want, G.entries)
                else:
                    tau, want = other.compose(tau), linalg.mat_mul(G.entries, want)
            assert _unscaled(tau.scaled_G) == want
            assert tau.G.entries == want
            block_m = tuple(row[:sig.ell1] for row in want[:sig.ell1])
            assert _unscaled(tau.scaled_mt_inverse) == linalg.mat_inverse(
                linalg.transpose(block_m))

    def test_group_law_needs_no_lattice_solve(self, sig, monkeypatch):
        rng = random.Random(61)
        gens = _aut2_generators(sig)
        a = TauAut(sig, gens[0], random_character(sig.lattice, rng))
        b = TauAut(sig, gens[-1], random_character(sig.lattice, rng))
        monkeypatch.setattr(automorphisms, "lattice_motion", None)
        a.compose(b).inverse().compose(TauAut.identity(sig))
        TauAut.from_character(sig, random_character(sig.lattice, rng)).inverse()


class TestInnerExp:
    def test_polynomial_generator(self, desk):
        sigma = InnerExp(desk.x_poly(1))
        assert sigma.apply(desk.d(1)) == desk.d(1) - desk.one()

    def test_lattice_point(self, desk):
        alpha = (Fraction(1, 2), Fraction(1, 2))
        sigma = InnerExp(desk.x(alpha))
        for p in (1, 2):
            expected = desk.d(p) - desk.x(alpha, coeff=alpha[p - 1])
            assert sigma.apply(desk.d(p)) == expected

    def test_fixes_commutative_part(self, desk):
        rng = random.Random(4)
        sigma = InnerExp(random_A_element(desk, rng))
        for _ in range(10):
            a = random_A_element(desk, rng)
            assert sigma.apply(a) == a

    def test_constant_normalized_away(self, desk):
        u = desk.x_poly(1) + desk.scalar(5)
        assert InnerExp(u) == InnerExp(desk.x_poly(1))

    def test_rejects_derivation_part(self, desk):
        with pytest.raises(NotInA):
            InnerExp(desk.d(1))

    def test_nilpotency_bound(self, desk):
        rng = random.Random(5)
        zero = desk.zero()
        for _ in range(25):
            u = random_A_element(desk, rng)
            m = random_element(desk, rng, max_terms=1)
            cur = m
            for _ in range((m.max_level() or 0) + 1):
                cur = u.bracket(cur)
            assert cur == zero

    @pytest.mark.parametrize("sig_name", ["desk", "rank3"])
    def test_table_matches_ad_series(self, sig_name, request):
        # the generator table against the truncated series on whole elements
        sig = request.getfixturevalue(sig_name)
        rng = random.Random(17)
        for _ in range(100):
            u = random_A_element(sig, rng)
            w = random_element(sig, rng, max_level=3)
            assert InnerExp(u).apply(w) == _ad_series(u, w)

    def test_both_mode_verification(self, desk):
        # the acceptance suite runs the 100-pair check; keep the unit run light
        rng = random.Random(6)
        sigma = InnerExp(random_A_element(desk, rng))
        assert verify_automorphism(sigma, trials=25, seed=7, mode=MODE_ASSOC).passed
        assert verify_automorphism(sigma, trials=25, seed=7, mode=MODE_LIE).passed


class TestShiftV:
    def test_zero_shift_is_identity(self, desk):
        rng = random.Random(8)
        shift = ShiftV.identity(desk)
        for _ in range(10):
            w = random_element(desk, rng)
            assert shift.apply(w) == w

    def test_generator_images(self, desk):
        shift = ShiftV(desk, (3, 5))
        assert shift.apply(desk.x_poly(1)) == desk.x_poly(1) + desk.scalar(3)
        assert shift.apply(desk.d(2)) == desk.d(2) + desk.scalar(5)
        assert shift.apply(desk.d(1)) == desk.d(1)

    def test_fixes_lattice_points(self, desk):
        shift = ShiftV(desk, (3, 5))
        for coords in [(1, 0), (0, 1), (-1, 2)]:
            alpha = desk.lattice.ambient(coords)
            assert shift.apply(desk.x(alpha)) == desk.x(alpha)

    def test_both_mode_verification(self, desk):
        rng = random.Random(9)
        shift = ShiftV(desk, random_shift_vector(desk, rng))
        assert verify_automorphism(shift, trials=100, seed=10, mode=MODE_ASSOC).passed
        assert verify_automorphism(shift, trials=100, seed=10, mode=MODE_LIE).passed


class TestSigma1:
    def test_negates_lattice_points(self, desk):
        alpha = (Fraction(1, 2), Fraction(1, 2))
        assert apply_sigma1(desk, desk.x(alpha)) == -desk.x(alpha)

    def test_fixes_derivations(self, desk):
        for q in (1, 2):
            assert apply_sigma1(desk, desk.d(q)) == desk.d(q)

    def test_normal_ordering_correction(self, w01):
        e = w01.x((1,)) * w01.d(1)
        assert apply_sigma1(w01, e) == e + w01.x((1,))

    def test_order_two(self, desk):
        rng = random.Random(11)
        for _ in range(25):
            w = random_element(desk, rng)
            assert apply_sigma1(desk, apply_sigma1(desk, w)) == w

    def test_bracket_mode_passes(self, desk):
        assert verify_automorphism(Sigma1(desk), trials=100, seed=12,
                                   mode=MODE_LIE).passed

    def test_associative_mode_fails_on_squared_derivation(self, desk):
        d1 = desk.d(1)
        assert apply_sigma1(desk, d1 * d1) == -(d1 * d1)
        assert apply_sigma1(desk, d1) * apply_sigma1(desk, d1) == d1 * d1
        report = verify_automorphism(Sigma1(desk), trials=100, seed=12,
                                     mode=MODE_ASSOC)
        assert not report.passed
        assert report.counterexample is not None


class TestConjugationLaw:
    def test_transvection_example(self, z2):
        p, v2 = 3, Fraction(5, 2)
        tau = TauAut(z2, BlockMatrix(1, 1, [[1, 0], [p, 1]]),
                     Character.trivial(z2.lattice))
        shift = ShiftV(z2, (0, v2))
        inner, moved = conjugated_shift(tau, shift)
        assert inner.u == z2.x_poly(1, coeff=-p * v2)
        assert moved.v == (0, v2)
        tau_inv = tau.inverse()
        assert tau_inv.apply(shift.apply(tau.apply(z2.d(1)))) == \
            z2.d(1) + z2.scalar(p * v2)

    def test_agreement_on_generators(self, desk):
        rng = random.Random(13)
        for _ in range(20):
            tau = TauAut(desk, random_aut2(desk, rng),
                         random_character(desk.lattice, rng))
            shift = ShiftV(desk, random_shift_vector(desk, rng))
            inner, moved = conjugated_shift(tau, shift)
            tau_inv = tau.inverse()
            for key in generator_keys(desk):
                g = generator_element(desk, key)
                assert tau_inv.apply(shift.apply(tau.apply(g))) == \
                    inner.apply(moved.apply(g))


class TestComposeNormalForms:
    def test_identity_neutral(self, desk):
        rng = random.Random(14)
        ident = NormalFormAut.identity(desk)
        nf = random_normal_form_aut(desk, rng, allow_eps=False)
        assert compose_normal_forms(ident, nf).same_data(nf)
        left = compose_normal_forms(nf, ident)
        assert left.same_data(nf)

    def test_agreement_with_sequential_application(self, desk):
        rng = random.Random(15)
        for _ in range(10):
            a = random_normal_form_aut(desk, rng, allow_eps=False)
            b = random_normal_form_aut(desk, rng, allow_eps=False)
            composed = compose_normal_forms(a, b)
            w = random_element(desk, rng)
            assert composed.apply(w) == a.apply(b.apply(w))

    def test_twist_rejected(self, desk):
        rng = random.Random(16)
        nf = random_normal_form_aut(desk, rng, allow_eps=False)
        twisted = NormalFormAut(nf.tau, nf.u, nf.v, 1, MODE_LIE)
        with pytest.raises(Sigma1NotSupported):
            compose_normal_forms(twisted, nf)

    def test_composition_is_associative(self, desk):
        rng = random.Random(27)
        for _ in range(5):
            a = random_normal_form_aut(desk, rng, allow_eps=False)
            b = random_normal_form_aut(desk, rng, allow_eps=False)
            c = random_normal_form_aut(desk, rng, allow_eps=False)
            left = compose_normal_forms(compose_normal_forms(a, b), c)
            right = compose_normal_forms(a, compose_normal_forms(b, c))
            assert left.same_data(right)

    def test_symbolic_law_agrees_with_decomposition_route(self, desk):
        # two independent paths to the composite's factored form
        rng = random.Random(28)
        for _ in range(5):
            a = random_normal_form_aut(desk, rng, allow_eps=False)
            b = random_normal_form_aut(desk, rng, allow_eps=False)
            symbolic = compose_normal_forms(a, b)
            images = {key: a.apply(b.apply(generator_element(desk, key)))
                      for key in generator_keys(desk)}
            refactored = decompose_automorphism(
                FunctionalAut(desk, MODE_LIE, images))
            assert refactored.same_data(symbolic)

    def test_mixed_twist_composition_via_functional_route(self, desk):
        rng = random.Random(17)
        for _ in range(5):
            a = random_normal_form_aut(desk, rng, allow_eps=True)
            b = random_normal_form_aut(desk, rng, allow_eps=True)
            if a.eps == 0 and b.eps == 0:
                continue
            composed = compose_automorphisms(a, b)
            assert composed.eps == (a.eps + b.eps) % 2
            for key in generator_keys(desk):
                g = generator_element(desk, key)
                assert composed.apply(g) == a.apply(b.apply(g))


class TestInnerConjugation:
    def test_delta_sigma_u_delta_inverse(self, desk):
        # delta sigma_u delta^{-1} = sigma_{delta(u)} for delta a tau or a shift
        rng = random.Random(18)
        for _ in range(10):
            u = random_A_element(desk, rng)
            sigma_u = InnerExp(u)
            tau = TauAut(desk, random_aut2(desk, rng),
                         random_character(desk.lattice, rng))
            shift = ShiftV(desk, random_shift_vector(desk, rng))
            w = random_element(desk, rng)
            for delta, delta_inv in ((tau, tau.inverse()), (shift, shift.inverse())):
                lhs = delta.apply(sigma_u.apply(delta_inv.apply(w)))
                rhs = InnerExp(delta.apply(u)).apply(w)
                assert lhs == rhs

    def test_twist_conjugation_inverts_inner_exp(self, desk):
        # the twist negates the commutative part, so it conjugates
        # exp(ad u) to exp(ad -u)
        rng = random.Random(19)
        twist = Sigma1(desk)
        for _ in range(5):
            u = random_A_element(desk, rng)
            sigma_u = InnerExp(u)
            sigma_neg = InnerExp(-u)
            w = random_element(desk, rng)
            assert twist.apply(sigma_u.apply(twist.apply(w))) == sigma_neg.apply(w)


class TestVerify:
    def test_identity_passes(self, desk):
        report = verify_automorphism(NormalFormAut.identity(desk), trials=20, seed=19)
        assert report.passed
        assert "pass" in report.describe()

    def test_report_counterexample_fields(self, desk):
        report = verify_automorphism(Sigma1(desk), trials=50, seed=20,
                                     mode=MODE_ASSOC)
        assert not report.passed
        ce = report.counterexample
        lhs_check = ce["lhs"]
        a, b = ce["a"], ce["b"]
        twist = Sigma1(desk)
        assert twist.apply(a * b) == lhs_check
        assert twist.apply(a) * twist.apply(b) == ce["rhs"]


class TestDecompose:
    def test_identity_images(self, desk):
        phi = FunctionalAut.from_aut(NormalFormAut.identity(desk))
        nf = decompose_automorphism(phi)
        assert nf.is_identity()

    def test_sigma1_images(self, desk):
        phi = FunctionalAut.from_aut(Sigma1(desk), mode=MODE_LIE)
        nf = decompose_automorphism(phi)
        assert nf.eps == 1
        assert nf.tau.is_identity()
        assert nf.u.is_identity()
        assert nf.v.is_identity()

    def test_round_trip(self, desk):
        rng = random.Random(21)
        for _ in range(10):
            nf = random_normal_form_aut(desk, rng, allow_eps=True)
            recovered = decompose_automorphism(FunctionalAut.from_aut(nf))
            assert recovered.same_data(nf)

    def test_round_trip_drops_u_constant(self, desk):
        rng = random.Random(22)
        base = random_normal_form_aut(desk, rng, allow_eps=False)
        shifted_u = base.u.u + base.signature.scalar(7)
        nf = NormalFormAut(base.tau, InnerExp(shifted_u), base.v, 0)
        recovered = decompose_automorphism(FunctionalAut.from_aut(nf))
        assert recovered.same_data(nf)

    def test_rejects_level_two_derivation_image(self, desk):
        phi = FunctionalAut.from_aut(NormalFormAut.identity(desk))
        images = dict(phi.images)
        images[("d", 1)] = desk.d(1) + desk.d(2, 2)
        with pytest.raises(NotAnAutomorphism):
            decompose_automorphism(FunctionalAut(desk, MODE_LIE, images))

    def test_rejects_derivation_images_without_block_matrix(self, desk):
        phi = FunctionalAut.from_aut(NormalFormAut.identity(desk))
        # d2 -> d1 + d2 fills the upper-right block; d1 -> 0 makes M singular
        for key, image in ((("d", 2), desk.d(1) + desk.d(2)), (("d", 1), desk.zero())):
            images = dict(phi.images)
            images[key] = image
            with pytest.raises(NotAnAutomorphism, match="give no block matrix"):
                decompose_automorphism(FunctionalAut(desk, MODE_LIE, images))

    def test_rejects_bad_unit_scale(self, desk):
        phi = FunctionalAut.from_aut(NormalFormAut.identity(desk))
        images = dict(phi.images)
        images[("one",)] = desk.scalar(2)
        with pytest.raises(NotAnAutomorphism):
            decompose_automorphism(FunctionalAut(desk, MODE_LIE, images))

    def test_rejects_nonconstant_flat_part_on_semisimple_slot(self, desk):
        phi = FunctionalAut.from_aut(NormalFormAut.identity(desk))
        images = dict(phi.images)
        # alpha = (1,0) has ambient second coordinate 1/2 != 0, so pick a point
        # with vanishing second coordinate instead: (1,-1) -> ambient (1/2, -1/2)?
        # Use the polynomial generator, whose lattice degree is zero.
        images[("d", 2)] = desk.d(2) + desk.x_poly(1)
        with pytest.raises(NotAnAutomorphism):
            decompose_automorphism(FunctionalAut(desk, MODE_LIE, images))

    def test_associative_mode_rejects_twist(self, desk):
        images = {key: apply_sigma1(desk, generator_element(desk, key))
                  for key in generator_keys(desk)}
        phi = FunctionalAut(desk, MODE_LIE, images)
        assert decompose_automorphism(phi).eps == 1
        with pytest.raises(NotAnAutomorphism):
            decompose_automorphism(FunctionalAut(desk, MODE_ASSOC, images))

    def test_functional_apply_matches_source(self, desk):
        rng = random.Random(23)
        nf = random_normal_form_aut(desk, rng, allow_eps=True)
        phi = FunctionalAut.from_aut(nf)
        for _ in range(5):
            w = random_element(desk, rng)
            assert phi.apply(w) == nf.apply(w)

    def test_round_trip_across_signatures(self):
        # no polynomial part, no semisimple part, and a rank-3 lattice
        shapes = [
            Signature(0, 1, Lattice(1, [(1,)])),
            Signature(1, 0, Lattice(1, [(Fraction(1, 2),)])),
            Signature(0, 2, Lattice(2, [(1, 0), (0, 1)])),
            Signature(2, 0, Lattice(2, [(1, 0), (0, 1)])),
        ]
        rng = random.Random(26)
        for sig in shapes:
            for _ in range(3):
                nf = random_normal_form_aut(sig, rng, allow_eps=True)
                recovered = decompose_automorphism(FunctionalAut.from_aut(nf))
                assert recovered.same_data(nf), sig


class TestFunctionalAut:
    def test_assoc_invariant_enforced(self, desk):
        nf = NormalFormAut.identity(desk, mode=MODE_ASSOC)
        images = {key: nf.apply(generator_element(desk, key))
                  for key in generator_keys(desk)}
        images[("x", 1, 1)] = images[("x", 1, 1)].scale(2)
        with pytest.raises(NotAnAutomorphism):
            FunctionalAut(desk, MODE_ASSOC, images)
        FunctionalAut(desk, MODE_LIE, images)  # no product law in bracket mode

    def test_missing_image_rejected(self, desk):
        with pytest.raises(KeyError):
            FunctionalAut(desk, MODE_LIE, {("one",): desk.one()})


class TestAutomorphismJson:
    def test_normal_form_round_trip(self, desk):
        rng = random.Random(24)
        nf = random_normal_form_aut(desk, rng, allow_eps=True)
        blob = json.dumps(nf.to_dict())
        back = NormalFormAut.from_dict(json.loads(blob))
        assert back.same_data(nf)
        assert back.mode == nf.mode
        assert json.dumps(back.to_dict()) == blob

    def test_functional_round_trip(self, desk):
        rng = random.Random(25)
        nf = random_normal_form_aut(desk, rng, allow_eps=False)
        phi = FunctionalAut.from_aut(nf, mode=MODE_ASSOC)
        blob = json.dumps(phi.to_dict())
        back = FunctionalAut.from_dict(json.loads(blob))
        assert back.images == phi.images
        assert back.mode == MODE_ASSOC
        assert json.dumps(back.to_dict()) == blob

    def test_schema_fields(self, desk):
        nf = NormalFormAut.identity(desk)
        data = nf.to_dict()
        assert set(data) == {"tau", "u", "v", "eps", "mode"}
        assert data["eps"] == 0
        assert data["tau"]["G"] == [["1", "0"], ["0", "1"]]
        assert data["v"] == ["0", "0"]


def _ref_hom_extend(w, out_sig, x_image, x1_images, d_images):
    """The ordered-product extension _hom_extend replaced: per term, the
    x-image times ascending x^{1_[p]}-image powers times ascending d_q-image
    powers, multiplied left to right and summed with Fraction arithmetic."""
    sig = w.signature
    out = {}
    powers = {}

    def power(tag, base, k):
        cached = powers.get((tag, k))
        if cached is None:
            cached = base if k == 1 else power(tag, base, k - 1) * base
            powers[(tag, k)] = cached
        return cached

    for (al, i, mu), c in w.terms.items():
        den, num = x_image(al)
        acc = Element(out_sig, {m: Fraction(n, den) for m, n in num.items()})
        for p in range(sig.ell1):
            if i[p]:
                acc = acc * power(("xi", p), x1_images[p], i[p])
        for q in range(sig.ell):
            if mu[q]:
                acc = acc * power(("d", q), d_images[q], mu[q])
        for m, v in acc.terms.items():
            out[m] = out.get(m, Fraction(0)) + c * v
    return Element(out_sig, out)


def _same(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())


def _hom_elements(sig, seed):
    """The zero element, scalars and random elements of levels 0..5 with
    polynomial parts."""
    rng = random.Random(seed)
    elems = [sig.zero(), sig.one(), sig.scalar(Fraction(-5, 3))]
    for level in range(6):
        elems += [random_element(sig, rng, max_terms=rng.randint(1, 3), max_level=level)
                  for _ in range(2)]
    return elems


class TestHomExtend:
    """_hom_extend against the ordered-product extension, through every
    generator-table caller and on random tables."""

    @pytest.fixture(params=["desk", "rank3"])
    def sig(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def _block_matrix(sig, rng):
        # a fixed G at rank 3: drawing one there scans 3^9 matrices
        if sig.ell == 3:
            return BlockMatrix(1, 2, [[-1, 0, 0], [0, -1, 0], [1, 2, 1]])
        return random_aut2(sig, rng)

    def _check_apply(self, monkeypatch, apply, elems):
        got = [apply(w) for w in elems]
        with monkeypatch.context() as mp:
            mp.setattr(automorphisms, "_hom_extend", _ref_hom_extend)
            want = [apply(w) for w in elems]
        for g, w in zip(got, want):
            _same(g, w)

    def test_families_match_ordered_product(self, sig, monkeypatch):
        rng = random.Random(40)
        elems = _hom_elements(sig, 41)
        tau = TauAut(sig, self._block_matrix(sig, rng), random_character(sig.lattice, rng))
        u = InnerExp(random_A_element(sig, rng))
        v = ShiftV(sig, random_shift_vector(sig, rng))
        for aut in (tau, u, v, NormalFormAut(tau, u, v, 0), NormalFormAut(tau, u, v, 1)):
            self._check_apply(monkeypatch, aut.apply, elems)

    def test_iso_map_between_signatures(self, desk, monkeypatch):
        third = Signature(1, 1, Lattice(2, [(1, 0), (0, Fraction(1, 3))]))
        iso = iso_search_bounded(desk, third, trials=1).iso
        assert iso.target != iso.signature
        self._check_apply(monkeypatch, iso.apply, _hom_elements(desk, 42))

    def test_random_tables(self, sig):
        """A-valued x- and xi-images, d-images of any level that need not
        commute."""
        rng = random.Random(43)
        for _ in range(4):
            x_cache = {}

            def x_image(al):
                if al not in x_cache:
                    e = random_A_element(sig, random.Random(str(al)), max_terms=2)
                    x_cache[al] = (e.den, e.num)
                return x_cache[al]

            x1_images = [random_A_element(sig, rng, max_terms=2) for _ in range(sig.ell1)]
            d_images = [random_element(sig, rng, max_terms=2, max_level=2)
                        for _ in range(sig.ell)]
            assert any(a * b != b * a for a in d_images for b in d_images)
            for w in _hom_elements(sig, rng.randint(0, 99)):
                _same(automorphisms._hom_extend(w, sig, x_image, x1_images, d_images),
                      _ref_hom_extend(w, sig, x_image, x1_images, d_images))

    def test_rejects_images_outside_A(self, desk):
        fixed = automorphisms._fixed_x_image(desk)
        x1_images = [desk.x_poly(1)]
        d_images = [desk.d(1), desk.d(2)]
        w = desk.x((1, 0), (2, 0)) * desk.d(1)

        def moved_x_image(al):
            den, num = fixed(al)
            return den, {**num, Monomial((0, 0), (0, 0), (0, 1)): den}

        with pytest.raises(InvariantViolation):
            automorphisms._hom_extend(w, desk, moved_x_image, x1_images, d_images)
        with pytest.raises(InvariantViolation):
            automorphisms._hom_extend(w, desk, fixed, [desk.x_poly(1) * desk.d(1)],
                                      d_images)


def _assert_canonical(e):
    """e is stored as nonzero integer numerators over a positive integer
    denominator with no common factor."""
    assert type(e.den) is int and e.den > 0
    assert all(type(n) is int and n != 0 for n in e.num.values())
    assert gcd(e.den, *e.num.values()) == 1


class TestIntegerForm:
    """Every element, from the constructor or from any operation, keeps the
    canonical integer form, and equality agrees with the Fraction view."""

    @pytest.fixture(params=["desk", "rank3", "rank4"])
    def sig(self, request):
        return RANK4 if request.param == "rank4" else request.getfixturevalue(request.param)

    def test_operations_keep_canonical_form(self, sig):
        rng = random.Random(80)
        elems = [random_element(sig, rng, max_level=2, max_i=2, coord_bound=1)
                 for _ in range(200)]
        tau = TauAut(sig, _aut2_generators(sig)[-1], random_character(sig.lattice, rng))
        families = [tau, tau.inverse(), Sigma1(sig),
                    InnerExp(random_A_element(sig, rng, max_i=2, coord_bound=1)),
                    ShiftV(sig, random_shift_vector(sig, rng))]
        targets = [random_A_element(sig, rng, max_i=2, coord_bound=1) for _ in range(10)]
        for k, (a, b) in enumerate(zip(elems, elems[1:] + elems[:1])):
            c = random_coefficient(rng)
            results = [a, a + b, a - b, a - a, -a, a.scale(c), a.scale(0), a / c, a * b,
                       a.bracket(b), act_on_A(a, targets[k % 10])]
            results += [phi.apply(a) for phi in families]
            for e in results:
                _assert_canonical(e)
            for x, y in ((a, b), ((a + b) - b, a), (a.scale(c) / c, a), (a * b, b * a)):
                assert (x == y) == (x.terms == y.terms)
            assert (a + b) - b == a and a.scale(c) / c == a

    def test_terms_is_a_copy(self, sig):
        rng = random.Random(81)
        for _ in range(20):
            e = random_element(sig, rng)
            den, num = e.den, dict(e.num)
            view = e.terms
            m = next(iter(view))
            view[m] += 1
            view[Monomial((0,) * sig.ell, (0,) * sig.ell, (0,) * sig.ell)] = Fraction(7)
            assert (e.den, e.num) == (den, num)
            assert e.terms != view
