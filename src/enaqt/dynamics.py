"""Haken-Strobl dynamics with trapping and recombination.

The master equation propagated here is

    drho/dt = -i (H_eff rho - rho H_eff^dag)
              + gamma_phi * sum_m (A_m rho A_m - 1/2 {A_m, rho})

with A_m = |m><m| and H_eff from model.effective_hamiltonian. Because the
A_m are projectors, the dephasing dissipator reduces to

    gamma_phi * (diag(rho) - rho)

which leaves populations untouched and damps every coherence at gamma_phi.

Both computational routes write the equation as vec(drho/dt) = L vec(rho)
with a column-stacked Liouvillian and are exact up to linear-algebra
roundoff. build_liouvillian() returns L as a plain ndarray. propagate()
samples rho(t) = expm(L t) rho0 by stepping the matrix exponential between
sample times up to a finite, positive horizon. MomentSolver, the one place
that solves for S1 = int_0^inf rho dt and S2 = int_0^inf t rho dt, never
touches time at all: it solves L S1 = -rho0 and L S2 = -S1 at any
dephasing rate, with one conditioning guard for every caller. The test
suite checks both against the independent DOP853 and eigenbasis oracles in
tests/oracles.py.

vec() convention: columns are stacked, so vec(rho)[col * N + row] =
rho[row, col] and vec(A rho B) = (B^T kron A) vec(rho). Mixing this up
transposes the Liouvillian, so it is asserted by a property test against
master_equation_rhs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .errors import ConfigurationError, NonConvergentIntegralError
from .model import effective_hamiltonian


def _vec(mat):
    """Column-stacked vectorization."""
    return mat.flatten(order="F")


def _unvec(v, n):
    return v.reshape((n, n), order="F")


def master_equation_rhs(sys, rho):
    """Right-hand side drho/dt (ps^-1) for a density matrix rho.

    Written so exact Hermiticity of the result is preserved when rho is
    Hermitian: -i(M - M^dag) with M = H_eff rho is manifestly
    anti-symmetrized.
    """
    rho = np.asarray(rho, dtype=complex)
    n = sys.n_sites
    if rho.shape != (n, n):
        raise ConfigurationError(
            "density matrix has shape %s, system has %d sites" % (rho.shape, n))
    M = effective_hamiltonian(sys) @ rho
    out = -1j * (M - M.conj().T)
    gamma_phi = sys.dephasing_rate
    if gamma_phi != 0.0:
        out -= gamma_phi * rho
        d = np.einsum("ii->i", out)
        d += gamma_phi * np.einsum("ii->i", rho)
    return out


def _dephasing_diagonal(n):
    """Diagonal of the dephasing superoperator sum_m E_mm kron E_mm - I.

    It is -1 on coherence indices and 0 on population indices, so the full
    dephasing contribution to L is gamma_phi times this diagonal.
    """
    d = -np.ones(n * n)
    d[(n + 1) * np.arange(n)] = 0.0
    return d


def _coherent_liouvillian(heff):
    """Superoperator for -i(H_eff rho - rho H_eff^dag) alone."""
    n = heff.shape[0]
    eye = np.eye(n)
    return -1j * (np.kron(eye, heff) - np.kron(heff.conj(), eye))


def build_liouvillian(sys):
    """The dense N^2 x N^2 Liouvillian L of a system, an ndarray with
    vec(drho/dt) = L vec(rho)."""
    heff = effective_hamiltonian(sys)
    L = _coherent_liouvillian(heff)
    if sys.dephasing_rate != 0.0:
        idx = np.arange(sys.n_sites * sys.n_sites)
        L[idx, idx] += sys.dephasing_rate * _dephasing_diagonal(sys.n_sites)
    return L


# ---------------------------------------------------------------------------
# Time-domain propagation


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled time evolution.

    times : (T,) array, ps, starting at 0
    states : (T, N, N) complex array of density matrices
    loss_integral : (T,) array, the accumulated bleed
        int_0^t (2 Gamma Tr rho + 2 sum_m kappa_m rho_mm) dt',
        propagated exactly alongside the state from its own row of
        Gamma and kappa, so trace(rho(t)) + loss_integral(t) equals
        trace(rho(0)) to roundoff when the Liouvillian is right.
    """

    times: np.ndarray
    states: np.ndarray
    loss_integral: np.ndarray

    def populations(self):
        return np.real(np.einsum("tii->ti", self.states))

    def trace(self):
        return np.real(np.einsum("tii->t", self.states))

    def coherence_l1(self):
        """Sum of |rho_mn| over m != n at each sample."""
        absval = np.abs(self.states)
        total = absval.sum(axis=(1, 2))
        diag = np.einsum("tii->t", absval)
        return total - diag

    def write_csv(self, f):
        """Write `t_ps,p_1,...,p_N,trace,coherence_l1` rows."""
        n = self.states.shape[1]
        pops = self.populations()
        tr = self.trace()
        coh = self.coherence_l1()
        header = "t_ps," + ",".join("p_%d" % (m + 1) for m in range(n))
        header += ",trace,coherence_l1"
        f.write(header + "\n")
        for i, t in enumerate(self.times):
            row = [repr(float(t))]
            row += [repr(float(p)) for p in pops[i]]
            row.append(repr(float(tr[i])))
            row.append(repr(float(coh[i])))
            f.write(",".join(row) + "\n")


def propagate(sys, rho0, t_final, sample_times=None):
    """Evolve rho0 from t=0 to t_final and return the sampled trajectory.

    The generator is time independent, so each sample is exact up to
    roundoff: y(t + dt) = expm(G dt) y(t) on y = (vec rho, loss_integral),
    where G is the Liouvillian bordered by one row that accumulates the
    bleed rate 2 Gamma Tr rho + 2 sum_m kappa_m rho_mm. That row is built
    from Gamma and kappa directly, not from H_eff, so the balance
    trace(rho(t)) + loss_integral(t) = trace(rho0) remains a check on
    the Liouvillian rather than holding by construction.

    sample_times selects the output grid (values in [0, t_final]; 0 is
    always included, duplicates are dropped). When omitted, the endpoints
    0 and t_final are returned.
    """
    t_final = float(t_final)
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise ConfigurationError(
            "t_final must be finite and positive, got %r" % t_final)
    n = sys.n_sites
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (n, n):
        raise ConfigurationError(
            "initial state has shape %s, system has %d sites" % (rho.shape, n))

    if sample_times is None:
        samples = np.array([0.0, t_final])
    else:
        samples = np.unique(np.asarray(sample_times, dtype=float))
        if samples.size and (samples[0] < 0.0 or samples[-1] > t_final * (1 + 1e-12)):
            raise ConfigurationError("sample times must lie in [0, t_final]")
        if samples.size == 0 or samples[0] > 0.0:
            samples = np.concatenate([[0.0], samples])

    nn = n * n
    gen = np.zeros((nn + 1, nn + 1), dtype=complex)
    gen[:nn, :nn] = build_liouvillian(sys)
    gen[nn, (n + 1) * np.arange(n)] = 2.0 * (sys.recomb_rate + sys.trap_rates)

    ys = np.zeros((samples.size, nn + 1), dtype=complex)
    ys[0, :nn] = _vec(rho)
    for i, dt in enumerate(np.diff(samples)):
        ys[i + 1] = expm(gen * dt) @ ys[i]

    # Column-major reshape undoes the column stacking of each row, as _unvec.
    states = ys[:, :nn].reshape((samples.size, n, n), order="F")
    return Trajectory(times=samples, states=states,
                      loss_integral=ys[:, nn].real)


HORIZON_CAP_PS = 1000.0


def default_horizon(sys):
    """Default trajectory length: ten lifetimes of the slowest decay channel,
    capped at HORIZON_CAP_PS. Uses 10 / (2 Gamma + min active kappa); falls
    back to the cap when there is no decay at all."""
    active = sys.trap_rates[sys.trap_rates > 0.0]
    rate = 2.0 * sys.recomb_rate + (active.min() if active.size else 0.0)
    if rate <= 0.0:
        return HORIZON_CAP_PS
    return float(min(10.0 / rate, HORIZON_CAP_PS))


# ---------------------------------------------------------------------------
# Algebraic route: infinite-horizon moments by linear solves

_COND_LIMIT = 1e12
_GETRF, _GECON, _GETRS = get_lapack_funcs(("getrf", "gecon", "getrs"),
                                          dtype=np.complex128)


class MomentSolver:
    """First two time moments of the evolution, S1 = int rho dt and
    S2 = int t rho dt, for one (H_eff, rho0) at any dephasing rate.

    S1 solves L vec(S1) = -vec(rho0); S2 solves L vec(S2) = -vec(S1)
    (integration by parts moves the factor of t into a second solve).
    Dephasing only adds gamma_phi times a fixed diagonal to L, so the
    coherent part is built once; solver(gamma_phi) adds the diagonal and
    returns (S1, S2) from one dense LU factorization. A condition estimate
    above 1e12 aborts: the integrals are then dominated by a near-null
    mode, which means some population has no decay channel to reach.
    """

    def __init__(self, sys, rho0):
        n = sys.n_sites
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (n, n):
            raise ConfigurationError(
                "initial state has shape %s, system has %d sites"
                % (rho0.shape, n))
        if sys.recomb_rate == 0.0 and not np.any(sys.trap_rates > 0.0):
            raise NonConvergentIntegralError(
                "no decay channel anywhere (all kappa_m = 0 and Gamma = 0): "
                "int_0^inf rho dt diverges")
        self.n_sites = n
        self._rhs = -_vec(rho0)
        self._coherent = np.asfortranarray(
            _coherent_liouvillian(effective_hamiltonian(sys)))
        self._dephasing = _dephasing_diagonal(n)
        self._diag = np.arange(n * n)
        # gamma_phi moves only the diagonal of each column's 1-norm.
        offdiag = np.abs(self._coherent)
        offdiag[self._diag, self._diag] = 0.0
        self._offdiag_colsum = offdiag.sum(axis=0)

    def __call__(self, gamma_phi):
        gamma = float(gamma_phi)
        if not (np.isfinite(gamma) and gamma >= 0.0):
            raise ConfigurationError(
                "dephasing rate must be finite and >= 0, got %r" % (gamma_phi,))
        L = self._coherent.copy(order="F")
        if gamma != 0.0:
            L[self._diag, self._diag] += gamma * self._dephasing
        anorm = np.max(self._offdiag_colsum + np.abs(L[self._diag, self._diag]))
        lu, piv, info = _GETRF(L, overwrite_a=True)
        if info > 0:
            raise NonConvergentIntegralError(
                "Liouvillian is singular: likely some initial population "
                "cannot reach a decay channel")
        rcond, info = _GECON(lu, anorm)
        if info != 0:
            raise NonConvergentIntegralError(
                "condition estimate failed (LAPACK info=%d)" % info)
        if rcond == 0.0 or 1.0 / rcond > _COND_LIMIT:
            raise NonConvergentIntegralError(
                "Liouvillian condition estimate %.3e exceeds 1e12: the "
                "integrals do not converge reliably; likely cause is a site "
                "(or subspace) with no reachable decay channel"
                % (np.inf if rcond == 0.0 else 1.0 / rcond))
        s1, _ = _GETRS(lu, piv, self._rhs)
        s2, _ = _GETRS(lu, piv, -s1)
        return _unvec(s1, self.n_sites), _unvec(s2, self.n_sites)


def integrated_state(sys, rho0):
    """(S1, S2) at the system's own dephasing rate."""
    return MomentSolver(sys, rho0)(sys.dephasing_rate)
