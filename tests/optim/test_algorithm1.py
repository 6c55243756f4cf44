"""Pin the FEKF update to a hand-computed Algorithm 1 trace.

Every line of the paper's Algorithm 1 is evaluated by hand for a 2-weight
single-block filter and compared against both kernel backends.
"""

import numpy as np
import pytest

from repro.optim import KalmanConfig, KalmanState, error_signs
from repro.perf.presets import DenseKalmanState


def _unguarded(fused):
    cfg = KalmanConfig(blocksize=4, p_trace_cap=np.inf, max_step_norm=np.inf)
    return (KalmanState if fused else DenseKalmanState)(2, [(0, 2)], cfg)


@pytest.mark.parametrize("fused", [False, True], ids=["naive", "fused"])
class TestAlgorithm1:
    G = np.array([0.6, -0.8])
    ABE = 0.5
    LAM0, NU = 0.98, 0.9987

    def _hand(self):
        """Lines 8-13 of Algorithm 1 with P=I."""
        g, lam = self.G, self.LAM0
        a = 1.0 / (lam + g @ g)  # line 8
        k = a * g  # line 9
        p = (np.eye(2) - a * np.outer(g, g)) / lam  # line 10
        p = (p + p.T) / 2  # line 11
        lam_next = lam * self.NU + 1 - self.NU  # line 12
        dw = np.sqrt(4) * self.ABE * k  # line 13 (bs=4)
        return dw, p, lam_next

    def test_first_update_matches_hand_trace(self, fused):
        dw_hand, p_hand, lam_hand = self._hand()
        state = _unguarded(fused)
        dw = state.update(self.G, self.ABE, np.sqrt(4))
        assert np.allclose(dw, dw_hand, atol=1e-14)
        assert np.allclose(state.p_dense(0), p_hand, atol=1e-14)
        assert state.lam == pytest.approx(lam_hand)

    def test_second_update_uses_updated_p(self, fused):
        _, p1, lam1 = self._hand()
        state = _unguarded(fused)
        state.update(self.G, self.ABE, 2.0)
        g2 = np.array([1.0, 0.5])
        pg = p1 @ g2
        a2 = 1.0 / (lam1 + g2 @ pg)
        dw2_hand = 2.0 * self.ABE * a2 * pg
        dw2 = state.update(g2, self.ABE, 2.0)
        assert np.allclose(dw2, dw2_hand, atol=1e-13)


class TestSignAlignment:
    def test_lines_3_to_5(self):
        """'if Y_hat >= Y then Y_hat = -Y_hat': errors err = Y - Y_hat."""
        y_hat = np.array([1.0, 3.0, 2.0])
        y = np.array([2.0, 1.0, 2.0])
        signs = error_signs(y - y_hat)
        # pred below label -> keep (+); pred at/above label -> flip (-)
        assert np.array_equal(signs, [1.0, -1.0, -1.0])
