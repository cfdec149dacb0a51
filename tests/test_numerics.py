import math

import numpy as np
import pytest
from scipy import special

from maxbias.errors import BracketError, DomainError
from maxbias.numerics import find_root, maximize_unimodal


def norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-10)

    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            1.41421356, abs=1e-8
        )

    def test_step_loss_scale_equation(self):
        # 2 (1 - Phi(s)) = 0.5 has the closed-form root Phi^{-1}(0.75).
        root = find_root(lambda s: 2.0 * special.ndtr(-s) - 0.5, 0.1, 3.0)
        assert root == pytest.approx(float(special.ndtri(0.75)), abs=1e-9)
        assert root == pytest.approx(0.67449, abs=1e-5)

    def test_roots_of_monotone_functions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            slope = rng.uniform(0.1, 3.0)
            cube = rng.uniform(0.0, 1.0)
            shift = rng.uniform(-5.0, 5.0)

            def f(x):
                return cube * (x - shift) ** 3 + slope * (x - shift)

            root = find_root(f, -20.0, 20.0)
            assert abs(f(root)) <= 1e-8

    def test_rejects_empty_bracket(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 1.0, -1.0)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_ends_evaluated_once(self):
        # The sign check's f(lo) and f(hi) are handed to Brent's method, so no
        # point is evaluated twice and the root is unchanged.
        xs = []

        def f(x):
            xs.append(x)
            return x * x - 2.0

        root = find_root(f, 1.0, 2.0)
        assert xs[:2] == [1.0, 2.0]
        assert len(xs) == len(set(xs))
        assert root == find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


class TestMaximizeUnimodal:
    def test_parabola(self):
        x, fx = maximize_unimodal(lambda x: -((x - 3.0) ** 2), 0.0, 10.0)
        assert x == pytest.approx(3.0, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_scaled_normal_score(self):
        # d/dx (2 x exp(-x^2/2)) = 0 exactly at x = 1.
        x, _ = maximize_unimodal(lambda x: 2.0 * x * norm_pdf(x), 1e-9, 10.0)
        assert x == pytest.approx(1.0, abs=1e-7)

    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            maximize_unimodal(lambda x: -x * x, 2.0, 2.0)

    def test_constant_plateau(self):
        x, fx = maximize_unimodal(lambda x: 4.25, 0.0, 2.0)
        assert 0.0 <= x <= 2.0
        assert fx == 4.25

    def test_matches_dense_grid_argmax(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = rng.uniform(-4.0, 4.0)
            p = rng.uniform(1.2, 2.5)

            def f(x):
                return -abs(x - m) ** p

            grid = np.linspace(-5.0, 5.0, 10001)
            best = grid[np.argmax([f(x) for x in grid])]
            x, _ = maximize_unimodal(f, -5.0, 5.0)
            assert abs(x - best) <= grid[1] - grid[0]
