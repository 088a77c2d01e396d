import io
import os

import numpy as np
import pytest

from helpers import random_gridfn, random_scale
from tsvar import calculus as ca
from tsvar.calculus import (
    DomainMismatchError,
    GridFunction,
    cumulative_delta,
    cumulative_nabla,
    delta_derivative,
    delta_integral,
    from_callable,
    nabla_derivative,
    nabla_integral,
    read_csv,
    second_delta,
    second_nabla,
    shift_rho,
    shift_sigma,
    write_csv,
)
from tsvar.timescale import TimeScaleError, from_points, h_integers, uniform


def rel_close(a, b, tol=1e-12):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.all(np.abs(a - b) <= tol * (1.0 + np.abs(a) + np.abs(b)))


Z4 = from_points([0, 1, 2, 3])


class TestDerivatives:
    def test_constant_has_zero_slope(self):
        f = from_callable(Z4, lambda t: 7.5)
        assert np.all(delta_derivative(f).values == 0)
        assert np.all(nabla_derivative(f).values == 0)

    def test_linear_has_constant_slope(self):
        f = from_callable(Z4, lambda t: 3.25 * t)
        np.testing.assert_allclose(delta_derivative(f).values, 3.25)
        np.testing.assert_allclose(nabla_derivative(f).values, 3.25)

    def test_square_forward_quotients(self):
        # ((t+1)^2 - t^2)/1 evaluated by hand at t = 0, 1, 2
        f = from_callable(Z4, lambda t: t * t)
        np.testing.assert_array_equal(delta_derivative(f).values, [1.0, 3.0, 5.0])
        assert delta_derivative(f).domain == range(0, 3)

    def test_square_backward_quotients(self):
        # (t^2 - (t-1)^2)/1 by hand at t = 1, 2, 3
        f = from_callable(Z4, lambda t: t * t)
        np.testing.assert_array_equal(nabla_derivative(f).values, [1.0, 3.0, 5.0])
        assert nabla_derivative(f).domain == range(1, 4)

    def test_second_differences(self):
        f = from_callable(Z4, lambda t: t * t)
        np.testing.assert_array_equal(second_delta(f).values, [2.0, 2.0])
        np.testing.assert_array_equal(second_nabla(f).values, [2.0, 2.0])
        assert second_delta(f).domain == range(0, 2)
        assert second_nabla(f).domain == range(2, 4)

    def test_second_of_linear_and_constant_vanish(self):
        assert np.all(second_delta(from_callable(Z4, lambda t: 2 * t - 1)).values == 0)
        assert np.all(second_nabla(from_callable(Z4, lambda t: 4.0)).values == 0)

    def test_derivative_needs_full_scale(self):
        f = from_callable(Z4, lambda t: t)
        with pytest.raises(DomainMismatchError):
            second_delta(delta_derivative(f))


class TestShifts:
    def test_forward_shift_clamps(self):
        ts = from_points([0, 1, 2])
        f = GridFunction(ts, np.array([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(shift_sigma(f).values, [20.0, 30.0, 30.0])
        np.testing.assert_array_equal(shift_rho(f).values, [10.0, 10.0, 20.0])

    def test_shift_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            fsig = shift_sigma(f).values
            frho = shift_rho(f).values
            fd = delta_derivative(f).values
            fn = nabla_derivative(f).values
            # f(sigma(t)) = f(t) + mu(t) f'(t) off the maximum
            assert rel_close(fsig[:-1], f.values[:-1] + ts.mu_values[:-1] * fd)
            # f(rho(t)) = f(t) - nu(t) f'(t) off the minimum
            assert rel_close(frho[1:], f.values[1:] - ts.nu_values[1:] * fn)


class TestIntegrals:
    def test_single_interval_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            i = int(rng.integers(0, len(ts) - 1))
            t, s = ts.points[i], ts.points[i + 1]
            assert rel_close(delta_integral(f, t, s), ts.mu_values[i] * f.values[i])
            assert rel_close(nabla_integral(f, t, s), ts.nu_values[i + 1] * f.values[i + 1])

    def test_empty_interval(self):
        f = from_callable(Z4, lambda t: t)
        assert delta_integral(f, 2, 2) == 0
        assert nabla_integral(f, 2, 2) == 0

    def test_h_grid_forward_sum(self):
        ts = h_integers(0, 6, 2)
        f = from_callable(ts, lambda t: t + 1)
        assert delta_integral(f, 0, 6) == sum((k * 2.0 + 1) * 2.0 for k in range(3))

    def test_integer_backward_sum(self):
        f = from_callable(Z4, lambda t: t * t)
        assert nabla_integral(f, 0, 3) == 1 + 4 + 9
        assert nabla_integral(f, 3, 0) == -(1 + 4 + 9)

    def test_normalized_constant_integrates_to_one(self):
        ts = from_points([0, 1, 2, 3, 4])  # dyadic span keeps the sum exact
        f = from_callable(ts, lambda t: 0.25)
        assert nabla_integral(f, 0, 4) == 1.0
        assert delta_integral(f, 0, 4) == 1.0

    def test_integrand_off_scale_point(self):
        f = from_callable(Z4, lambda t: t)
        with pytest.raises(TimeScaleError):
            delta_integral(f, 0.5, 3)


class TestCumulative:
    def test_zero_function(self):
        f = from_callable(Z4, lambda t: 0.0)
        assert np.all(cumulative_delta(f, 0).values == 0)
        assert np.all(cumulative_nabla(f, 0).values == 0)

    def test_cumulative_inverts_derivative(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            F = cumulative_delta(f, ts.a)
            np.testing.assert_allclose(
                delta_derivative(F).values, f.values[:-1], rtol=1e-10, atol=1e-12
            )
            G = cumulative_nabla(f, ts.a)
            np.testing.assert_allclose(
                nabla_derivative(G).values, f.values[1:], rtol=1e-10, atol=1e-12
            )

    def test_cumulative_accepts_one_sided_domains(self):
        f = from_callable(Z4, lambda t: t)
        fd = delta_derivative(f)  # lives off the maximum point
        F = cumulative_delta(fd, 0)
        assert F.values[-1] == delta_integral(f, 0, 3) - 0  # both equal sum of mu*f'
        fn = nabla_derivative(f)
        G = cumulative_nabla(fn, 0)
        assert G.values[-1] == 3

    def test_anchor_in_the_middle(self):
        f = from_callable(Z4, lambda t: 1.0)
        F = cumulative_delta(f, 2)
        np.testing.assert_array_equal(F.values, [-2.0, -1.0, 0.0, 1.0])


class TestIdentityBattery:
    """The exact interchange identities between the two calculi."""

    def test_product_rules(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            g = random_gridfn(rng, ts)
            prod = GridFunction(ts, f.values * g.values)
            pd = delta_derivative(prod).values
            fd, gd = delta_derivative(f).values, delta_derivative(g).values
            fsig, gsig = shift_sigma(f).values[:-1], shift_sigma(g).values[:-1]
            assert rel_close(pd, fd * gsig + f.values[:-1] * gd)
            assert rel_close(pd, fd * g.values[:-1] + fsig * gd)
            pn = nabla_derivative(prod).values
            fn, gn = nabla_derivative(f).values, nabla_derivative(g).values
            frho, grho = shift_rho(f).values[1:], shift_rho(g).values[1:]
            assert rel_close(pn, fn * g.values[1:] + frho * gn)
            assert rel_close(pn, fn * grho + f.values[1:] * gn)

    def test_integral_linearity_and_orientation(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            g = random_gridfn(rng, ts)
            a, b = ts.a, ts.b
            alpha = float(rng.uniform(-2, 2))
            fg = GridFunction(ts, f.values + g.values)
            af = GridFunction(ts, alpha * f.values)
            for integral in (delta_integral, nabla_integral):
                assert rel_close(integral(fg, a, b), integral(f, a, b) + integral(g, a, b))
                assert rel_close(integral(af, a, b), alpha * integral(f, a, b))
                assert rel_close(integral(f, a, b), -integral(f, b, a))
                c = float(rng.choice(ts.points))
                assert rel_close(
                    integral(f, a, b), integral(f, a, c) + integral(f, c, b)
                )

    def test_positivity(self):
        rng = np.random.default_rng(14)
        ts = random_scale(rng)
        f = GridFunction(ts, rng.uniform(0.1, 1.0, len(ts)))
        assert delta_integral(f, ts.a, ts.b) > 0
        assert nabla_integral(f, ts.a, ts.b) > 0

    def test_conversion_between_integrals(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            a, b = ts.a, ts.b
            frho = shift_rho(f)
            fsig = shift_sigma(f)
            assert rel_close(delta_integral(f, a, b), nabla_integral(frho, a, b))
            assert rel_close(nabla_integral(f, a, b), delta_integral(fsig, a, b))

    def test_conversion_between_derivatives(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            # backward slope at t equals forward slope at rho(t), exactly
            np.testing.assert_array_equal(
                nabla_derivative(f).values, delta_derivative(f).values
            )

    def test_splitting_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ts = random_scale(rng)
            f = random_gridfn(rng, ts)
            a, b = ts.a, ts.b
            rho_b = ts.points[-2]
            sig_a = ts.points[1]
            frho_b = f.values[-2]
            fsig_a = f.values[1]
            assert rel_close(
                delta_integral(f, a, b),
                delta_integral(f, a, rho_b) + (b - rho_b) * frho_b,
            )
            assert rel_close(
                delta_integral(f, a, b),
                (sig_a - a) * f.values[0] + delta_integral(f, sig_a, b),
            )
            assert rel_close(
                nabla_integral(f, a, b),
                nabla_integral(f, a, rho_b) + (b - rho_b) * f.values[-1],
            )
            assert rel_close(
                nabla_integral(f, a, b),
                (sig_a - a) * fsig_a + nabla_integral(f, sig_a, b),
            )

    def test_integration_by_parts_all_four(self):
        rng = np.random.default_rng(18)
        for vanishing in (False, True):
            for _ in range(20):
                ts = random_scale(rng)
                f = random_gridfn(rng, ts)
                g = random_gridfn(rng, ts)
                if vanishing:
                    gv = g.values.copy()
                    gv[0] = gv[-1] = 0.0
                    g = GridFunction(ts, gv)
                a, b = ts.a, ts.b
                boundary = f.values[-1] * g.values[-1] - f.values[0] * g.values[0]
                fd = GridFunction(ts, delta_derivative(f).values, domain=range(0, len(ts) - 1))
                gd = GridFunction(ts, delta_derivative(g).values, domain=range(0, len(ts) - 1))
                fsig = shift_sigma(f)
                gsig = shift_sigma(g)
                lhs1 = np.dot(ts.mu_values[:-1], fsig.values[:-1] * gd.values)
                rhs1 = boundary - np.dot(ts.mu_values[:-1], fd.values * g.values[:-1])
                assert rel_close(lhs1, rhs1)
                lhs2 = np.dot(ts.mu_values[:-1], f.values[:-1] * gd.values)
                rhs2 = boundary - np.dot(ts.mu_values[:-1], fd.values * gsig.values[:-1])
                assert rel_close(lhs2, rhs2)
                fn = nabla_derivative(f).values
                gn = nabla_derivative(g).values
                frho = shift_rho(f)
                grho = shift_rho(g)
                lhs3 = np.dot(ts.nu_values[1:], frho.values[1:] * gn)
                rhs3 = boundary - np.dot(ts.nu_values[1:], fn * g.values[1:])
                assert rel_close(lhs3, rhs3)
                lhs4 = np.dot(ts.nu_values[1:], f.values[1:] * gn)
                rhs4 = boundary - np.dot(ts.nu_values[1:], fn * grho.values[1:])
                assert rel_close(lhs4, rhs4)


def test_riemann_sum_first_order_convergence():
    # forward integral of t^2 over a refining uniform grid on [0, 1]
    errors = {}
    for n in (10, 100, 1000):
        ts = uniform(0, 1, n)
        f = from_callable(ts, lambda t: t * t)
        errors[n] = abs(delta_integral(f, 0, 1) - 1.0 / 3.0)
    # fitted constant is about 0.5; assert the O(1/n) envelope with C = 2
    for n, err in errors.items():
        assert err <= 2.0 / n
    assert errors[1000] <= errors[10] / 50  # genuinely first order, not slower


class TestGridFunctionApi:
    def test_value_at_and_domain_guard(self):
        f = from_callable(Z4, lambda t: 10 * t)
        assert f.value_at(2) == 20
        fd = delta_derivative(f)
        with pytest.raises(DomainMismatchError):
            fd.value_at(3)  # the maximum point is outside the quotient domain

    def test_restricted_view(self):
        f = from_callable(Z4, lambda t: t)
        r = f.restricted(range(1, 3))
        np.testing.assert_array_equal(r.values, [1.0, 2.0])
        np.testing.assert_array_equal(r.t, [1.0, 2.0])
        with pytest.raises(DomainMismatchError):
            r.restricted(range(0, 2))

    def test_masked_integrand_over_covered_interval(self):
        f = from_callable(Z4, lambda t: t + 1)
        fd = delta_derivative(f)  # defined on [0, 3) only
        assert delta_integral(fd, 0, 3) == 3.0  # slope one, three unit gaps
        fn = nabla_derivative(f)  # defined on (0, 3] only
        assert nabla_integral(fn, 0, 3) == 3.0

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(Z4, np.array([0.0, 1.0, np.nan, 3.0]))

    def test_domain_must_be_an_index_range(self):
        with pytest.raises(DomainMismatchError):
            GridFunction(Z4, np.array([1.0, 2.0]), domain=range(0, 4, 2))
        with pytest.raises(DomainMismatchError):
            GridFunction(Z4, np.array([1.0, 2.0]), domain=range(3, 5))
        with pytest.raises(DomainMismatchError):
            GridFunction(Z4, np.array([1.0, 2.0]), domain=range(0, 3))

    def test_masked_integrand_outside_domain_rejected(self):
        f = from_callable(Z4, lambda t: t)
        fd = delta_derivative(f)  # undefined at the maximum point
        with pytest.raises(DomainMismatchError):
            nabla_integral(fd, 0, 3)  # needs a value at t = 3
        fn = nabla_derivative(f)  # undefined at the minimum point
        with pytest.raises(DomainMismatchError):
            delta_integral(fn, 0, 3)  # needs a value at t = 0

    def test_single_point_domain_cannot_differentiate(self):
        f = from_callable(Z4, lambda t: t).restricted(range(1, 2))
        with pytest.raises(DomainMismatchError):
            delta_derivative(f)

    def test_cumulative_needs_one_sided_coverage(self):
        f = from_callable(Z4, lambda t: t)
        fn = nabla_derivative(f)  # missing the minimum point
        with pytest.raises(DomainMismatchError):
            cumulative_delta(fn, 0)
        fd = delta_derivative(f)  # missing the maximum point
        with pytest.raises(DomainMismatchError):
            cumulative_nabla(fd, 0)

    def test_shift_needs_full_scale(self):
        f = from_callable(Z4, lambda t: t)
        with pytest.raises(DomainMismatchError):
            shift_sigma(delta_derivative(f))
        with pytest.raises(DomainMismatchError):
            shift_rho(nabla_derivative(f))


def _feeds(tmp_path, text):
    """``text`` as an open handle, which the line filter reads, and as a
    path to a file with those bytes, which numpy's file reader reads with
    the line filter as its fallback."""
    path = tmp_path / "feed.csv"
    path.write_bytes(text.encode("utf-8"))
    return io.StringIO(text, newline=""), str(path)


class TestCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        ts = random_scale(rng)
        f = random_gridfn(rng, ts)
        buf = io.StringIO()
        write_csv(f, buf)
        for source in _feeds(tmp_path, buf.getvalue()):
            back = read_csv(source, ts)
            np.testing.assert_array_equal(back.values, f.values)
            np.testing.assert_array_equal(back.t, f.t)

    def test_header_enforced(self, tmp_path):
        for source in _feeds(tmp_path, "time,val\n0,1\n"):
            with pytest.raises(ValueError):
                read_csv(source)

    def test_scale_mismatch_detected(self, tmp_path):
        ts = from_points([0, 1, 2])
        for source in _feeds(tmp_path, "t,value\n0,0\n0.5,1\n2,2\n"):
            with pytest.raises(TimeScaleError):
                read_csv(source, ts)

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        text = "t,value\n\n0,1\n   \n\t\n1,2\n \t \n\n2,4\n  \n"
        for source in _feeds(tmp_path, text):
            back = read_csv(source)
            np.testing.assert_array_equal(back.t, [0.0, 1.0, 2.0])
            np.testing.assert_array_equal(back.values, [1.0, 2.0, 4.0])

    def test_crlf_endings_and_padded_cells_accepted(self, tmp_path):
        text = "t,value\r\n 0 , 1 \r\n1,\t2\r\n\t2\t,4\r\n"
        for source in (*_feeds(tmp_path, text), tmp_path / "feed.csv"):
            back = read_csv(source)
            np.testing.assert_array_equal(back.t, [0.0, 1.0, 2.0])
            np.testing.assert_array_equal(back.values, [1.0, 2.0, 4.0])

    @pytest.mark.parametrize(
        "body",
        [
            "0\n1\n2\n",  # one cell per row
            "0,1,9\n1,2,9\n2,4,9\n",  # three cells per row
            "0,1\n1,2,9\n2,4\n",  # mixed widths
            "0,1\n1\n2,4\n",
            "0,1,\n1,2,\n2,4,\n",  # trailing comma
            "0,1\n1,two\n2,4\n",  # non-numeric text
            "zero,1\n1,2\n2,4\n",
            "0,1\n1,,2\n2,4\n",
            "0,1\n1, \n2,4\n",
            "0,1\n# note\n2,4\n",
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, body):
        for source in _feeds(tmp_path, "t,value\n" + body):
            with pytest.raises(ValueError):
                read_csv(source)

    def test_header_only_file_has_no_scale(self, tmp_path):
        for text, scale in (("t,value\n", None), ("t,value", None), ("t,value\n\n  \n", Z4)):
            for source in _feeds(tmp_path, text):
                with pytest.raises(TimeScaleError):
                    read_csv(source, scale)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_nonfinite_values_rejected(self, tmp_path, cell):
        for text in (f"t,value\n0,1\n1,{cell}\n2,3\n", f"t,value\n0,1\n{cell},2\n2,3\n"):
            for source in _feeds(tmp_path, text):
                with pytest.raises(ValueError):
                    read_csv(source)

    def test_large_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        n = 100_003
        # values: arbitrary finite bit patterns plus the awkward corners
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        vals = bits.view(np.float64).copy()
        vals[~np.isfinite(vals)] = 0.5
        corners = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3]
        vals[: len(corners)] = corners
        pts = np.cumsum(rng.uniform(0.5, 1.5, size=n)) * 1e-3 - 7.0
        f = GridFunction(from_points(pts), vals)
        buf = io.StringIO()
        write_csv(f, buf)
        for source in _feeds(tmp_path, buf.getvalue()):
            back = read_csv(source, f.scale)
            np.testing.assert_array_equal(back.values.view(np.uint64), vals.view(np.uint64))
            np.testing.assert_array_equal(back.t.view(np.uint64), pts.view(np.uint64))

    def test_written_bytes_match_17_digit_reference(self, tmp_path):
        rng = np.random.default_rng(21)
        ts = random_scale(rng, nmin=2000, nmax=2000)
        f = GridFunction(ts, rng.standard_normal(len(ts)) * 10.0 ** rng.integers(-320, 300, len(ts)))
        want = "t,value\n" + "".join("%.17g,%.17g\n" % (t, v) for t, v in zip(f.t, f.values))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert path.read_bytes() == want.encode("ascii")
        buf = io.StringIO()
        write_csv(f, buf)
        assert buf.getvalue() == want


# Files on which numpy's file reader and the line filter could part ways:
# whitespace-only lines (numpy's file reader rejects them; the filter drops
# them), line endings, encodings and cells that neither accepts.  Each body
# has at least three rows, so a parse difference cannot hide behind the
# scale's minimum size.
CORPUS = {
    "nbsp_line": "t,value\n0,1\n\u00a0\n1,2\n2,4\n",
    "em_space_line": "t,value\n0,1\n\u2003\n1,2\n2,4\n",
    "form_feed_line": "t,value\n0,1\n\x0c\n1,2\n2,4\n",
    "vertical_tab_line": "t,value\n0,1\n\x0b\n1,2\n2,4\n",
    "next_line_line": "t,value\n0,1\n\x85\n1,2\n2,4\n",
    "line_separator_in_cell": "t,value\n0,1\u2028\n1,2\n2,4\n",
    "spaces_and_tabs_lines": "t,value\n\n0,1\n   \n\t\n1,2\n \t \n2,4\n  ",
    "lone_cr": "t,value\r0,1\r1,2\r2,4\r",
    "mixed_endings": "t,value\r\n0,1\n1,2\r2,4\r\n",
    "crlf_padded": "t,value\r\n 0 , 1 \r\n1,\t2\r\n\t2\t,4\r\n",
    "no_final_newline": "t,value\n0,1\n1,2\n2,4",
    "bom": "\ufefft,value\n0,1\n1,2\n2,4\n",
    "underscore_cell": "t,value\n0,1\n1,1_0\n2,4\n",
    "whitespace_then_malformed": "t,value\n0,1\n  \n1,2,3\n2,4\n",
    "one_cell_rows": "t,value\n0\n1\n2\n",
    "comment_row": "t,value\n0,1\n# note\n2,4\n",
    "quoted_cell": "t,value\n\"0\",1\n1,2\n2,4\n",
    "nul_line": "t,value\n0,1\n\x00\n1,2\n2,4\n",
    "nan_value": "t,value\n0,1\n1,nan\n2,4\n",
    "infinite_point": "t,value\n0,1\ninf,2\n2,4\n",
    "extra_header_cells": "t,value,note\n0,1\n1,2\n2,4\n",
    "line_breaks_of_str_in_header": "t,value,\u2028-5,0\x85-4,0\x0c-3,0\x1e-2,0\n0,1\n1,2\n2,4\n",
    "line_breaks_of_str_in_row": "t,value\n0,1\u20281,2\n2,4\n",
    "signs_and_exponents": "t,value\n-1,+1\n.5,1.\n2E0,-4e-3\n",
    "header_only": "t,value\n",
    "empty": "",
}


def _outcome(source):
    """The bits read, or the exception type and message."""
    try:
        f = read_csv(source)
    except Exception as err:  # the outcome, error or bits, is what is compared
        return type(err), str(err)
    return f.t.tobytes(), f.values.tobytes()


def _agree(path):
    """read_csv of a path and of an open handle on that file agree."""
    with open(path, encoding="utf-8") as fh:
        by_handle = _outcome(fh)
    assert _outcome(path) == by_handle


class TestCsvReaders:
    """numpy's file reader, which ``read_csv`` runs on a path, against the
    line filter, which it runs on an open handle and as the fallback."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_path_and_handle_agree(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CORPUS[name].encode("utf-8"))
        _agree(str(path))

    def test_path_and_handle_agree_past_the_first_buffer(self, tmp_path):
        rows = "".join(f"{i},{i * 0.5}\n" for i in range(20_000))
        for tail, name in ((b"1,\xe9\n", "latin.csv"), (b"\xa0\n1e9,0\n", "nbsp.csv")):
            path = tmp_path / name
            path.write_bytes(b"t,value\n" + rows.encode() + tail)
            _agree(str(path))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compression_suffix(self, tmp_path, suffix):
        path = tmp_path / f"x.csv{suffix}"
        path.write_bytes(b"t,value\n0,1\n1,2\n2,4\n")
        _agree(str(path))
        np.testing.assert_array_equal(read_csv(path).values, [1.0, 2.0, 4.0])

    def test_relative_url_like_path_is_read_locally(self, tmp_path, monkeypatch):
        import urllib.request

        def no_network(*args, **kwargs):
            raise AssertionError("read_csv tried to fetch a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:").mkdir()
        (tmp_path / "http:" / "x.csv").write_bytes(b"t,value\n0,1\n1,2\n2,4\n")
        _agree("http://x.csv")
        np.testing.assert_array_equal(read_csv("http://x.csv").values, [1.0, 2.0, 4.0])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self):
        r, w = os.pipe()
        try:
            os.write(w, b"t,value\n0,1\n1,2\n2,4\n")
            os.close(w)
            back = read_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
        np.testing.assert_array_equal(back.values, [1.0, 2.0, 4.0])

    def _spy(self, monkeypatch):
        calls = []
        real = np.loadtxt

        def loadtxt(body, *args, **kwargs):
            calls.append([body, "raised"])
            out = real(body, *args, **kwargs)
            calls[-1][1] = "returned"
            return out

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        return calls

    def test_a_clean_file_is_parsed_once_from_its_absolute_path(self, tmp_path, monkeypatch):
        f = GridFunction(Z4, np.array([1.0, -2.5, 1e-300, 7.0]))
        write_csv(f, tmp_path / "clean.csv")
        monkeypatch.chdir(tmp_path)
        calls = self._spy(monkeypatch)
        for source in ("clean.csv", tmp_path / "clean.csv"):
            calls.clear()
            np.testing.assert_array_equal(read_csv(source).values, f.values)
            [(body, how)] = calls
            assert type(body) is str and os.path.isabs(body) and how == "returned"
            assert body == str(tmp_path / "clean.csv")

    def test_the_fallback_runs_only_after_the_file_reader_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"t,value\n0,1\n \n1,2\n2,4\n")
        calls = self._spy(monkeypatch)
        np.testing.assert_array_equal(read_csv(path).values, [1.0, 2.0, 4.0])
        assert [(type(body) is str, how) for body, how in calls] == [(True, "raised"), (False, "returned")]
        calls.clear()
        with open(path, encoding="utf-8") as fh:
            read_csv(fh)
        assert [(type(body) is str, how) for body, how in calls] == [(False, "returned")]


def _reference_rows(t, v):
    return "".join("%.17g,%.17g\n" % (a, b) for a, b in zip(t.tolist(), v.tolist()))


def _written_rows(t, v):
    buf = io.StringIO()
    ca._write_rows(buf, "t,value", t, v)
    head, _, body = buf.getvalue().partition("\n")
    assert head == "t,value"
    return body


def _ulp_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestCsvWriterOracle:
    """The block writer against one ``%.17g`` per number, byte for byte."""

    def assert_matches(self, values, rng):
        values = np.asarray(values, dtype=float)
        values = np.concatenate([values, -values])
        values = values[rng.permutation(values.size)]
        n = max(values.size // 2, ca._MIN_VECTOR_ROWS)
        values = np.resize(values, 2 * n)  # enough rows for the vectorised path
        t, v = values[:n], values[n:]
        assert _written_rows(t, v) == _reference_rows(t, v)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64)
        self.assert_matches(bits.view(np.float64), rng)  # NaNs and infinities among them

    def test_powers_of_ten_and_their_neighbours(self):
        rng = np.random.default_rng(32)
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        # and the largest 17-digit values below each decade, which round up
        nines = [float(f"9.9999999999999999e{k}") for k in range(-300, 300)]
        self.assert_matches(_ulp_neighbours(powers + nines), rng)

    def test_integers_at_and_beyond_2_to_the_53(self):
        rng = np.random.default_rng(33)
        ints = [2.0**e + d for e in range(53, 70) for d in (-2, -1, 0, 1, 2)]
        ints += (rng.integers(2**53, 2**63, 2000).astype(float)).tolist()
        ints += [float(10**k + m) for k in range(16, 19) for m in (-5, -1, 0, 1, 5, 10)]
        self.assert_matches(_ulp_neighbours(ints), rng)

    def test_zeros_subnormals_and_fast_path_edges(self):
        rng = np.random.default_rng(34)
        edges = _ulp_neighbours([1e-250, 1e250, 2.2250738585072014e-308, 1e-4, 1e17])
        subnormals = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1.7976931348623157e308]
        self.assert_matches(np.concatenate([edges, subnormals, special]), rng)

    def test_decimal_ties_and_near_ties(self):
        # m / 2^18 for odd m has 18 significant digits ending in 5 in [0.1, 1):
        # an exact tie at 17 digits, which rounds half to even
        rng = np.random.default_rng(35)
        ties = (2 * rng.integers(13_107, 131_072, 3000) + 1) / 2.0**18
        scaled = ties * 2.0 ** rng.integers(-30, 31, ties.size)
        self.assert_matches(_ulp_neighbours(np.concatenate([ties, scaled])), rng)

    def test_every_decade_and_mantissa(self):
        rng = np.random.default_rng(36)
        vals = rng.uniform(1.0, 10.0, 40_000) * 10.0 ** rng.integers(-260, 260, 40_000)
        self.assert_matches(vals, rng)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("base", ["crossover", "block"])
    def test_block_edges(self, monkeypatch, base, extra):
        n = (ca._MIN_VECTOR_ROWS if base == "crossover" else ca._BLOCK_ROWS) + extra
        rng = np.random.default_rng(37 + n)
        t = np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-3
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
        calls = []
        real = ca._format_numbers
        monkeypatch.setattr(ca, "_format_numbers", lambda x: calls.append(x.size) or real(x))
        assert _written_rows(t, v) == _reference_rows(t, v)
        blocks = [min(ca._BLOCK_ROWS, n - lo) for lo in range(0, n, ca._BLOCK_ROWS)]
        assert calls == [2 * b for b in blocks if b >= ca._MIN_VECTOR_ROWS]
