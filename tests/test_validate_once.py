"""Each input is checked once, at the public entry point, and strided input is valid input."""

import numpy as np
import pytest

from ghzw import classify, criterion, qcore, states


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _full_rank_rho():
    rho = states.mix([(1.0 / 8.0, states.haar_random_pure(seed)) for seed in range(8)])
    assert np.linalg.matrix_rank(rho) == 8
    return rho


def _operator_passes(monkeypatch, fn):
    as_operator = _count(monkeypatch, qcore, "as_operator")
    hermitian_eigs = _count(monkeypatch, qcore, "hermitian_eigs")
    fn()
    return len(as_operator), len(hermitian_eigs)


def test_full_rank_criterion_checks_rho_once(monkeypatch):
    rho = _full_rank_rho()
    assert _operator_passes(monkeypatch, lambda: criterion.ghzw_criterion(rho)) == (1, 0)


@pytest.mark.parametrize("cut", classify.CUTS)
def test_ppt_cut_checks_rho_once(monkeypatch, cut):
    rho = _full_rank_rho()
    assert _operator_passes(monkeypatch, lambda: classify.ppt_min_eigenvalue(rho, cut)) == (1, 0)


@pytest.mark.parametrize("entry", [criterion.ghzw_criterion_pure, classify.is_genuinely_entangled_pure])
def test_pure_entry_points_make_one_finiteness_pass(monkeypatch, entry):
    psi = states.haar_random_pure(5)
    calls = _count(monkeypatch, np, "isfinite")
    entry(psi)
    assert len(calls) == 1


def _strided(a):
    """a copy of `a` laid out with every second element along each axis skipped"""
    big = np.zeros(tuple(2 * n for n in a.shape), dtype=complex)
    big[tuple(slice(None, None, 2) for _ in a.shape)] = a
    view = big[tuple(slice(None, None, 2) for _ in a.shape)]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    return view


def test_strided_ket_is_accepted():
    xi = states.make_xi()
    assert criterion.ghzw_criterion_pure(_strided(xi)) == criterion.ghzw_criterion_pure(xi)


@pytest.mark.parametrize("layout", [np.asfortranarray, _strided])
def test_non_contiguous_density_matrix_is_accepted(layout):
    rho = states.mix([(0.3, states.make_ghz()), (0.5, states.make_w()), (0.2, states.haar_random_pure(4))])
    view = layout(rho)
    assert not view.flags.c_contiguous
    assert criterion.ghzw_criterion(view) == criterion.ghzw_criterion(rho)
    for cut in classify.CUTS:
        assert classify.ppt_min_eigenvalue(view, cut) == classify.ppt_min_eigenvalue(rho, cut)
