"""Independent reference implementations used to cross-check the engine.

Everything here restates the physics from scratch on purpose. The
effective Hamiltonian is rebuilt directly from the system fields, the
master equation right-hand side is written in its textbook form and as a
complex column-stacked superoperator, and the infinite-horizon moments
come either from a high-order adaptive ODE solver with the quadrature
carried alongside the state (any dephasing rate) or from the exact
eigendecomposition formula (coherent case only). The same ODE solver also
samples finite-time trajectories. At strong dephasing, hopping_limit gives
eta, tau and the loss from the classical rate equation the dynamics
reduces to there. Nothing calls into enaqt.dynamics, so
agreement between the two codebases is evidence rather than tautology.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from enaqt.model import TransportSystem

# Restated independently of enaqt.units: 2 pi c with c in cm/ps.
ANGULAR_PER_CM1 = 2.0 * math.pi * 0.0299792458


def reference_heff(sys):
    """H_eff in angular ps^-1, rebuilt from the raw system fields."""
    h = (np.diag(sys.site_energies) + sys.couplings) * ANGULAR_PER_CM1
    return h - 1j * np.diag(sys.recomb_rate + sys.trap_rates)


def reference_rhs(sys, rho):
    """Textbook form of the master equation right-hand side."""
    h = reference_heff(sys)
    out = -1j * (h @ rho - rho @ h.conj().T)
    g = sys.dephasing_rate
    if g != 0.0:
        out = out + g * (np.diag(np.diag(rho)) - rho)
    return out


def reference_liouvillian(sys):
    """The complex N^2 x N^2 superoperator of reference_rhs on column-
    stacked matrices: vec(drho/dt) = L vec(rho) with vec(rho)[c * N + r] =
    rho[r, c], so vec(A rho B) = (B^T kron A) vec(rho). Unlike the
    engine's real-coordinate Liouvillian, it acts on any complex rho."""
    n = sys.n_sites
    h = reference_heff(sys)
    eye = np.eye(n)
    liou = -1j * (np.kron(eye, h) - np.kron(h.conj(), eye))
    liou -= np.diag(sys.dephasing_rate * (1.0 - eye).flatten(order="F"))
    return liou


def quadrature_integrals(sys, rho0, rtol=1e-11, atol=1e-13, trace_floor=1e-12,
                         t_max=1e7):
    """S1 = int rho dt and S2 = int t rho dt by adaptive time integration.

    The integrands ride along with the state as extra quadrature variables,
    so they inherit the solver's error control. Integration stops when the
    remaining trace drops below trace_floor; the neglected tail is then
    bounded by trace_floor times the slowest remaining lifetime, far below
    the tolerances any caller checks against.
    """
    n = sys.n_sites
    nn = n * n
    h = reference_heff(sys)
    g = sys.dephasing_rate
    diag_idx = (n + 1) * np.arange(n)

    def f(t, y):
        rho = y[:nn].reshape((n, n), order="F")
        m = h @ rho
        drho = -1j * (m - m.conj().T)
        if g != 0.0:
            drho = drho + g * (np.diag(np.diag(rho)) - rho)
        return np.concatenate([drho.flatten(order="F"), y[:nn], t * y[:nn]])

    def drained(t, y):
        return float(np.real(y[diag_idx]).sum()) - trace_floor

    drained.terminal = True
    drained.direction = -1

    y0 = np.concatenate([np.asarray(rho0, dtype=complex).flatten(order="F"),
                         np.zeros(2 * nn, dtype=complex)])
    sol = solve_ivp(f, (0.0, t_max), y0, method="DOP853", rtol=rtol, atol=atol,
                    events=drained)
    if not sol.success:
        raise RuntimeError("reference quadrature failed: %s" % sol.message)
    if sol.status != 1:
        raise RuntimeError(
            "reference quadrature hit t_max = %g before the trace drained; "
            "the system decays too slowly for this oracle" % t_max)
    s1 = sol.y[nn:2 * nn, -1].reshape((n, n), order="F")
    s2 = sol.y[2 * nn:, -1].reshape((n, n), order="F")
    return s1, s2


def quadrature_trajectory(sys, rho0, times, rtol=1e-12, atol=1e-14):
    """rho(t) and the accumulated loss at each of `times` by DOP853.

    The loss rate is restated from the raw decay rates as
    Tr({Gamma + K, rho}) with K = diag(kappa), the probability that the
    anti-Hermitian part of H_eff removes per unit time; it is integrated
    alongside the state. Returns (states of shape (T, N, N), loss of
    shape (T,)).
    """
    n = sys.n_sites
    nn = n * n
    decay = np.diag(sys.recomb_rate + np.asarray(sys.trap_rates, dtype=float))

    def f(t, y):
        rho = y[:nn].reshape((n, n), order="F")
        drho = reference_rhs(sys, rho)
        rate = np.trace(decay @ rho + rho @ decay)
        return np.concatenate([drho.flatten(order="F"), [rate]])

    y0 = np.concatenate([np.asarray(rho0, dtype=complex).flatten(order="F"),
                         [0.0]])
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(f, (0.0, times[-1]), y0, method="DOP853", t_eval=times,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError("reference trajectory failed: %s" % sol.message)
    states = sol.y[:nn].T.reshape((times.size, n, n), order="F")
    return states, sol.y[nn].real


def eigen_integrals(sys, rho0):
    """Exact S1 and S2 for the coherent case (gamma_phi = 0).

    With rho(t) = exp(-i H t) rho0 exp(i H^dag t) and H = S diag(lam) S^-1,
    each matrix element evolves as exp(-i (lam_j - conj(lam_k)) t) in the
    eigenbasis, so the time integrals are elementwise divisions:

        S1 = S [ C_jk / (i (lam_j - conj(lam_k))) ] S^dag
        S2 = S [ C_jk / (i (lam_j - conj(lam_k)))^2 ] S^dag

    with C = S^-1 rho0 S^-dag. Valid whenever every eigenvalue has a
    strictly negative imaginary part (every mode decays).
    """
    if sys.dephasing_rate != 0.0:
        raise ValueError("eigen_integrals handles only gamma_phi = 0")
    h = reference_heff(sys)
    lam, smat = np.linalg.eig(h)
    if np.max(lam.imag) >= 0.0:
        raise ValueError("a non-decaying mode makes the integrals diverge")
    sinv = np.linalg.inv(smat)
    c = sinv @ np.asarray(rho0, dtype=complex) @ sinv.conj().T
    denom = 1j * (lam[:, None] - lam.conj()[None, :])
    s1 = smat @ (c / denom) @ smat.conj().T
    s2 = smat @ (c / denom ** 2) @ smat.conj().T
    return s1, s2


def hopping_limit(sys, rho0, gamma):
    """(eta, tau, loss) from the rate equation of the Zeno end, gamma >> H.

    There coherences follow the populations adiabatically (Mohseni et al.,
    J. Chem. Phys. 129, 174106 (2008)): coherence mn decays at
    G_mn = gamma + kappa_m + kappa_n + 2 Gamma and turns at the gap D_mn, so
    populations hop at k_mn = 2 V_mn^2 G_mn / (G_mn^2 + D_mn^2) (angular
    ps^-1) and drain at 2 (kappa_m + Gamma). With K that generator,
    P1 = -K^-1 p0 and P2 = -K^-1 P1, two N x N solves, give
    eta = 2 kappa.P1, tau = 2 kappa.P2 / eta and loss = 2 Gamma sum P1.
    Only the populations of rho0 enter: its coherences die in 1 / gamma.
    """
    v = np.asarray(sys.couplings, dtype=float) * ANGULAR_PER_CM1
    e = np.asarray(sys.site_energies, dtype=float) * ANGULAR_PER_CM1
    drain = np.asarray(sys.trap_rates, dtype=float) + sys.recomb_rate
    width = gamma + drain[:, None] + drain[None, :]
    gap = e[:, None] - e[None, :]
    k = 2.0 * v ** 2 * width / (width ** 2 + gap ** 2)
    np.fill_diagonal(k, 0.0)
    generator = k - np.diag(k.sum(axis=1) + 2.0 * drain)
    p1 = np.linalg.solve(generator, -np.diag(rho0).real)
    p2 = np.linalg.solve(generator, -p1)
    trapped = 2.0 * np.asarray(sys.trap_rates, dtype=float)
    eta = float(trapped @ p1)
    loss = 2.0 * sys.recomb_rate * float(p1.sum())
    return eta, float(trapped @ p2) / eta, loss


def bright_chain_efficiency(spec):
    """Coherent-limit efficiency of the chain an ordered tree reduces to.

    With every site energy equal, the generation-uniform states
    |k> = 2^-(k-1)/2 sum_{m in generation k} |m> are mapped by H onto
    sqrt(2) V (|k-1> + |k+1>), dropping the terms outside 1..g: each site
    has one parent and two children. The trap sits on the root (= |1>) and
    recombination is uniform, so their span is invariant under H_eff and
    so is its orthogonal complement, a dark subspace that never reaches
    the trap. The coherent leaf state is
    exactly |g>; the leaf mixture holds weight 2^-(g-1) on |g><g| and none
    on the coherences between the chain and the dark complement.

    Builds that g-site chain from the spec's fields (nothing from
    enaqt.tree), starts it at its far end |g>, and returns
    eta = 2 kappa S1_11 from eigen_integrals.
    """
    g = spec.generation
    v = math.sqrt(2.0) * spec.coupling_cm1
    couplings = np.diag(np.full(g - 1, v), 1) + np.diag(np.full(g - 1, v), -1)
    trap = np.zeros(g)
    trap[0] = spec.trap_rate_ps
    chain = TransportSystem(
        n_sites=g,
        site_energies=np.zeros(g),
        couplings=couplings,
        trap_rates=trap,
        recomb_rate=spec.recomb_rate_ps,
        dephasing_rate=0.0,
    )
    start = np.zeros((g, g), dtype=complex)
    start[-1, -1] = 1.0
    s1, _ = eigen_integrals(chain, start)
    return 2.0 * spec.trap_rate_ps * float(s1[0, 0].real)


def random_transport_system(rng, n=None, dephasing=None):
    """A small random system with decay fast enough for quick quadrature.

    Energies are uniform in [-20, 20] cm^-1 and couplings in [-10, 10],
    so the coherent frequencies stay below a few rad/ps; recombination in
    [0.1, 0.3] ps^-1 drains the trace within a couple hundred ps.
    """
    if n is None:
        n = int(rng.integers(3, 6))
    energies = rng.uniform(-20.0, 20.0, size=n)
    v = rng.uniform(-10.0, 10.0, size=(n, n))
    v = np.triu(v, k=1)
    v = v + v.T
    kappa = np.zeros(n)
    for site in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
        kappa[site] = rng.uniform(0.3, 1.0)
    if dephasing is None:
        dephasing = float(rng.uniform(0.0, 5.0))
    return TransportSystem(
        n_sites=n,
        site_energies=energies,
        couplings=v,
        trap_rates=kappa,
        recomb_rate=float(rng.uniform(0.1, 0.3)),
        dephasing_rate=dephasing,
    )


def random_density_matrix(rng, n):
    """A random valid state: positive semidefinite with unit trace.

    Symmetrized so the result is Hermitian bitwise, not just to roundoff;
    some tests assert exact Hermiticity preservation.
    """
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real
