"""Haken-Strobl dynamics with trapping and recombination.

The master equation propagated here is

    drho/dt = -i (H_eff rho - rho H_eff^dag)
              + gamma_phi * sum_m (A_m rho A_m - 1/2 {A_m, rho})

with A_m = |m><m| and H_eff from model.effective_hamiltonian. Because the
A_m are projectors, the dephasing dissipator reduces to

    gamma_phi * (diag(rho) - rho)

which leaves populations untouched and damps every coherence at gamma_phi.

The right-hand side L rho maps Hermitian matrices to Hermitian ones, and
every initial state here is exactly Hermitian (any other raises
ConfigurationError), so L is written once, by build_liouvillian(), as a
real N^2 x N^2 matrix on the orthonormal real coordinates

    y = (X_mm, sqrt2 Re X_jk, sqrt2 Im X_jk for j < k)

of a Hermitian X, which coordinates() and from_coordinates() convert.
Both computational routes are exact up to linear-algebra roundoff.
propagate() samples y(t) = expm(L t) y0 by stepping the matrix exponential
between sample times, which start at 0 and increase strictly. It computes
one exponential per distinct step size and reuses it from a small cache
keyed by the exact step, so evenly spaced samples cost at most ~20
exponentials whatever their count, with states bit for bit those of one
exponential per step.
MomentSolver, the one place that solves for S1 = int_0^inf rho dt and
S2 = int_0^inf t rho dt, never touches time at all: it solves
L S1 = -rho0 and L S2 = -S1 at any dephasing rate, so a sweep over
gamma_phi builds one solver per (system, rho0) and calls it per rate. Systems
of fewer than 9 sites get a dense real LU of build_liouvillian's matrix,
and the moments of rho0 come out exactly Hermitian.
Larger systems get an eigenbasis route: H_eff is diagonalized once, the
coherent part of L is inverted elementwise in that basis, and the rank-N
dephasing term costs one N x N capacitance solve (Woodbury), followed by
one step of iterative refinement. Both routes factor by one guarded real
LU (_guarded_lu). When the eigenvectors are ill-conditioned (cond(S) >
1e4, as near an exceptional point), a mode is dark or the capacitance
system is ill-conditioned, that rate falls back to the dense solve, whose
1e12 guard then raises as for small systems; a fallback that would need
more than 1 GiB is refused instead. MomentSolver.first_moments() solves
S1 and its rate derivative dS1/dgamma = -L^-1 D(S1), D(x) = diag x - x,
over an array of rates, the derivative by a second solve with the same
factors; a stack is bit for bit the stacks of its rates one at a time.
The test suite checks both routes against the independent DOP853 and
eigenbasis oracles in tests/oracles.py.
one_blas_thread() runs a block on one OpenBLAS thread; the CLI computes
every command inside it, and library callers may wrap their calls in it.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .errors import (ConfigurationError, NonConvergentIntegralError,
                     NumericalConsistencyError)
from .model import as_rate, as_rate_grid, effective_hamiltonian, write_rows


def _openblas_pools():
    """(get, set) thread-count functions of the OpenBLAS builds that numpy
    (ILP64, `64_` suffix) and scipy.linalg (LP64) bundle, or () for a build
    without them. dlsym on an extension module's handle also searches the
    libraries it links, so no wheel-specific library name appears here."""
    try:
        from numpy._core import _multiarray_umath
        from scipy.linalg import _flapack
        pools = []
        for module, suffix in ((_multiarray_umath, "64_"), (_flapack, "")):
            lib = ctypes.CDLL(module.__file__)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
        return tuple(pools)
    except (ImportError, OSError, AttributeError):
        return ()


_OPENBLAS_POOLS = _openblas_pools()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with both bundled OpenBLAS pools on one thread and
    restore their previous counts on exit, also on an exception.

    A threaded GEMM sums in an order that depends on the thread count, so
    one thread makes results the same bytes under any OPENBLAS_NUM_THREADS.
    A second thread saves wall time only on the largest trees, and it
    spins between calls, costing CPU time. Yields the count in force: 1,
    or "unchanged" on a build without the setters, where the block runs
    under the process's own setting. The counts are process-wide, so a
    Python thread leaving the block also ends it for any other thread
    still inside."""
    pools = _OPENBLAS_POOLS
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield 1 if pools else "unchanged"
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)


def _initial_state(rho0, n):
    """rho0 as a complex N x N array. Another shape, a non-finite entry or
    a matrix that is not exactly Hermitian raises ConfigurationError."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (n, n):
        raise ConfigurationError(
            "initial state has shape %s, system has %d sites" % (rho.shape, n))
    if not np.all(np.isfinite(rho)):
        raise ConfigurationError("initial state has non-finite entries")
    if not np.array_equal(rho, rho.conj().T):
        raise ConfigurationError(
            "initial state is not exactly Hermitian; pass (rho + rho^dag) / 2")
    return rho


@functools.lru_cache(maxsize=8)
def _hermitian_coordinates(n):
    """The upper-triangle indices (j, k), j < k, of N x N matrices, and
    for each entry of X in flat C order the (N^2, 2) tables index and
    weight: entry (r, c) of X is w0 y[i0] + i w1 y[i1], with
    (w0, w1) = (1, 0) on the diagonal and (1/sqrt2, +-1/sqrt2) above and
    below it. Read-only, as the arrays are shared by every caller of N
    sites."""
    j, k = upper = np.triu_indices(n, 1)
    u = np.arange(len(j))
    m = np.arange(n)
    index = np.empty((n, n, 2), dtype=np.intp)
    weight = np.empty((n, n, 2))
    index[m, m] = m[:, None]
    index[j, k, 0] = index[k, j, 0] = n + u
    index[j, k, 1] = index[k, j, 1] = n + len(u) + u
    weight[m, m] = 1.0, 0.0
    weight[j, k] = weight[k, j] = np.sqrt(0.5)
    weight[k, j, 1] = -np.sqrt(0.5)
    tables = (j, k, index.reshape(-1, 2), weight.reshape(-1, 2))
    for a in tables:
        a.setflags(write=False)
    return (upper,) + tables[2:]


def coordinates(x):
    """y for the Hermitian N x N matrix x; only its upper triangle and the
    real part of its diagonal are read."""
    up = x[_hermitian_coordinates(len(x))[0]]
    return np.concatenate([x.diagonal().real, np.sqrt(2.0) * up.real,
                           np.sqrt(2.0) * up.imag])


def from_coordinates(y):
    """The Hermitian matrix X(y), or the stack of them for a stack of
    coordinate vectors along the last axis of y."""
    n = math.isqrt(y.shape[-1])
    _, index, weight = _hermitian_coordinates(n)
    # Each (real, imaginary) pair of x is one complex entry of X.
    x = y.take(index, axis=-1)
    x *= weight
    return x.view(complex).reshape(*y.shape[:-1], n, n)


def build_liouvillian(sys):
    """The dense Liouvillian of a system: the real N^2 x N^2 matrix L,
    Fortran-ordered, with coordinates(drho/dt) = L coordinates(rho).

    The coordinates are orthonormal in the real inner product
    Re tr(A^dag B), so the coherent part is M = T^dag L0 T, where column q
    of T is basis matrix q, flattened. For Hermitian X, L0 X = Z + Z^dag
    with Z = -i H_eff X, and the coordinates of Z + Z^dag are
    2 Re(T^dag Z), so M = 2 Re(T^dag (-i H_eff acting on X) T). That
    product has 4 N^3 nonzero terms, which are summed by index into the
    dense real matrix, never forming T or a complex N^2 x N^2 matrix.
    Dephasing adds -gamma_phi on each coherence coordinate and nothing on
    a population one.
    """
    heff = effective_hamiltonian(sys)
    n, nn = sys.n_sites, sys.n_sites * sys.n_sites
    _, index, weight = _hermitian_coordinates(n)
    (re, im), (alpha, beta) = index.T, weight.T
    # Term (r2, r, c): -i H[r2, r] carries entry (r, c) of X to entry
    # (r2, c) of -i H X; 2 Re of its four coordinate pairs goes to M.
    r2, r, c = np.indices((n, n, n)).reshape(3, -1)
    dst, src = r2 * n + c, r * n + c
    h = heff[r2, r]
    a_dst, b_dst = alpha[dst], beta[dst]
    a_src, b_src = alpha[src], beta[src]
    re_dst, im_dst = re[dst], im[dst]
    re_src, im_src = re[src], im[src]
    # Indexed column-major, so the reshaped sum is M in Fortran order.
    index = np.concatenate([re_src * nn + re_dst, im_src * nn + re_dst,
                            re_src * nn + im_dst, im_src * nn + im_dst])
    terms = 2.0 * np.concatenate([a_dst * a_src * h.imag,
                                  a_dst * b_src * h.real,
                                  -b_dst * a_src * h.real,
                                  b_dst * b_src * h.imag])
    matrix = np.bincount(index, terms, minlength=nn * nn).reshape(nn, nn).T
    np.einsum("ii->i", matrix)[n:] -= sys.dephasing_rate
    return matrix


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
        write_rows(f, ("t_ps", *("p_%d" % m for m in range(1, n + 1)),
                       "trace", "coherence_l1"),
                   ((t, *p, tr, coh) for t, p, tr, coh in zip(
                       self.times.tolist(), self.populations().tolist(),
                       self.trace().tolist(), self.coherence_l1().tolist())))


def propagate(sys, rho0, times):
    """Evolve rho0 and return its trajectory sampled at the given times.

    The generator is time independent, so each sample is exact up to
    roundoff: y(t + dt) = expm(G dt) y(t) on
    y = (coordinates(rho), loss_integral), where G is build_liouvillian's
    matrix bordered by one row that accumulates the bleed rate
    2 Gamma Tr rho + 2 sum_m kappa_m rho_mm from the population
    coordinates. That row is built from Gamma and kappa directly, not from
    H_eff, so the balance
    trace(rho(t)) + loss_integral(t) = trace(rho0) remains a check on
    the Liouvillian rather than holding by construction.

    One exponential is computed per distinct step size and reused for every
    equal step. The cache is keyed by the exact float step, so the result
    is bit-for-bit that of one exponential per step. It holds eight
    entries, so memory does not grow with the sample count. Evenly spaced
    samples (np.linspace) hold only 1-19 distinct steps after rounding
    and cost that many exponentials whatever their count; a grid whose
    steps are all distinct costs one per step.

    times is a 1-D array of finite times, strictly increasing from a first
    entry of exactly 0; its last entry is the horizon. Anything else raises
    ConfigurationError. The t = 0 state is rho0 itself, which must be
    exactly Hermitian. A sampled state or loss integral that is not finite
    (a step too long for the exponential) raises NumericalConsistencyError.
    """
    samples = np.array(times, dtype=float)
    if not (samples.ndim == 1 and samples.size and samples[0] == 0.0
            and np.all(np.isfinite(samples))
            and np.all(np.diff(samples) > 0.0)):
        raise ConfigurationError("times must be a 1-D array of finite times, "
                                 "strictly increasing from 0")
    n = sys.n_sites
    rho = _initial_state(rho0, n)

    nn = n * n
    gen = np.zeros((nn + 1, nn + 1))
    gen[:nn, :nn] = build_liouvillian(sys)
    gen[nn, :n] = 2.0 * (sys.recomb_rate + sys.trap_rates)

    ys = np.zeros((samples.size, nn + 1))
    ys[0, :nn] = coordinates(rho)
    step = functools.lru_cache(maxsize=8)(lambda dt: expm(gen * dt))
    for i, dt in enumerate(np.diff(samples)):
        ys[i + 1] = step(dt) @ ys[i]
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
    if bad.size:
        raise NumericalConsistencyError(
            "the propagated state is not finite at t = %r ps; the step to it "
            "overflows the matrix exponential" % float(samples[bad[0]]))

    states = from_coordinates(ys[:, :nn])
    # The round trip through the coordinates is exact only to roundoff.
    states[0] = rho
    return Trajectory(times=samples, states=states, loss_integral=ys[:, nn])


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
                                          dtype=np.float64)
# Systems of at least this many sites take the eigenbasis route. Below it
# the dense solve is the faster one and stays the only route: for FMO
# (N = 7), building a solver and solving for both moments took 0.18 ms
# dense (real LU) against 0.50 ms by eigenbasis, medians of six runs of
# 400 solvers, which ranged over 0.16-0.23 and 0.43-0.70 ms (one OpenBLAS
# thread, 2-core VM shared with other load).
_EIGENBASIS_MIN_SITES = 9
# The eigenbasis route is not taken when cond(S) of H_eff = S Lambda S^-1
# exceeds this: the eigenvectors are then close to parallel, as near an
# exceptional point, and their errors would be amplified by cond(S)^2.
_EIGENVECTOR_COND_LIMIT = 1e4
# The dense route holds the real N^2 x N^2 coherent Liouvillian and one
# copy of it per rate for the LU, 16 N^4 bytes together (the build's own
# index arrays take O(N^3)). The dense fallback refuses a system for which
# that exceeds this: at most 90 sites; a generation-7 tree would need
# 4.2 GB.
_DENSE_MAX_BYTES = 2 ** 30
# MomentSolver.first_moments stacks as many rates as keep its largest
# temporary, the folded capacitance product's B^T at 8 N^2 (N + 1) bytes
# per rate, within this many bytes: 18 rates at 15 sites, 2 at 31, 1 from
# 32 up. A stack of K >= 2 rates then keeps its (K, N, N) complex
# temporaries, at most 2^20 / (N + 1) bytes (102 KiB at 9 sites), below
# numpy's 256 KiB threshold for eliding temporaries, which evaluates
# r * tmp in place as tmp * r. Complex products are not commutative to
# the last bit, so a larger stack would no longer match one solve per rate
# (a stack of 40 rates at 31 sites does not).
_STACK_BYTES = 2 ** 19


def _guarded_lu(a, anorm):
    """(lu, cond): the condition estimate cond of the real matrix a of
    1-norm anorm (inf at an exact zero pivot) and its LU (lu, piv), or
    None when cond exceeds 1e12. Overwrites a Fortran-ordered a."""
    lu, piv, info = _GETRF(a, overwrite_a=True)
    rcond, info = _GECON(lu, anorm) if info == 0 else (0.0, info)
    cond = 1.0 / rcond if info == 0 and rcond > 0.0 else math.inf
    return ((lu, piv) if cond <= _COND_LIMIT else None), cond


class _Eigenbasis:
    """Solves L(gamma) x = b in the eigenbasis of H_eff = S diag(lam) W,
    for a stack of rates at once.

    Dephasing is gamma (diag x - x), so L(gamma) = A + gamma E E^T with
    A = L0 - gamma I and E^T x = diag(x). A is diagonal in the basis
    x~ = W x W^dag, where it multiplies element jk by
    R^-1_jk = -i(lam_j - conj(lam_k)) - gamma. The Woodbury identity then
    leaves one N x N capacitance system for the rank-N dephasing term:
        G = E^T A^-1 E,  G_mn = sum_jk X_m,jk R_jk Z_jk,n,
        z = (I + gamma G)^-1 gamma diag(A^-1 b),  x = A^-1 b - A^-1 diag(z),
    with X_m,jk = S_mj conj(S_mk) and Z_jk,n = W_jn conj(W_kn).

    G is real for any H_eff: R_kj = conj(R_jk), and swapping j and k
    conjugates X and Z too, so the (k, j) term of the sum is the conjugate
    of the (j, k) term. capacitance() therefore sums over the pairs
    u = (j, k) with j <= k only, weighting c_u = 2 off the diagonal:
        G = Re(sum_u c_u X_u (R_u Z_u)) = [Re cX, -Im cX] @ [Re B; Im B]
    with B = R_u Z_u, one real GEMM of N x N(N + 1) by N(N + 1) x N per
    rate in place of a complex N^2 x N by N x N product and an N^4
    contraction (build costs per tree size are in README.md).
    Each rate of a stack gets exactly the arithmetic it would get alone,
    so a stack's results equal those of one solve per rate bit for bit.
    """

    def __init__(self, heff, s, lam):
        self._heff = heff
        self._heff_h = heff.conj().T
        self._s = s
        self._s_h = s.conj().T
        self._w = np.linalg.inv(s)
        self._w_h = self._w.conj().T
        self._rinv0 = -1j * (lam[:, None] - lam.conj()[None, :])
        self._diag = np.diag_indices(len(lam))

    @classmethod
    def of(cls, heff):
        """The route for heff, or None when its eigenvectors are too close
        to parallel (or the eigensolver fails)."""
        try:
            lam, s = np.linalg.eig(heff)
        except np.linalg.LinAlgError:
            return None
        sv = np.linalg.svd(s, compute_uv=False)
        if not sv[-1] * _EIGENVECTOR_COND_LIMIT >= sv[0]:
            return None
        return cls(heff, s, lam)

    def to_eigenbasis(self, b):
        """W b W^dag for one N x N matrix or a stack of them."""
        return self._w @ b @ self._w_h

    def factor(self, gammas):
        """(ok, factors) for the 1-d array gammas of rates >= 0. ok masks
        the rates that pass every guard: R^-1 without a near-zero entry (a
        dark mode) and a well-conditioned capacitance matrix. factors holds
        those rates, their stacked R and their capacitance LUs, which at
        gamma = 0 are the LU of the identity. Callers only read what is
        returned."""
        rinv = self._rinv0 - gammas[:, None, None]
        mag = np.abs(rinv).reshape(len(gammas), -1)
        ok = mag.min(axis=1) * _COND_LIMIT >= mag.max(axis=1)
        gammas, r = gammas[ok], 1.0 / rinv[ok]
        # I + gamma G, the identity at gamma = 0: a stack of zeros skips G.
        stack = (gammas[:, None, None] * self.capacitance(r) if gammas.any()
                 else np.zeros(r.shape))
        stack[:, self._diag[0], self._diag[1]] += 1.0
        anorms = np.abs(stack).sum(axis=1).max(axis=1)
        caps = [_guarded_lu(cap, anorm)[0] for cap, anorm in zip(stack, anorms)]
        kept = np.array([cap is not None for cap in caps], dtype=bool)
        ok[ok] = kept
        return ok, (gammas[kept], r[kept], [c for c in caps if c is not None])

    def factor_stacks(self, gammas):
        """(idx, ok, factors) for each stack of consecutive rates, idx the
        stack's indices into gammas, in turn."""
        n = len(self._s)
        per_stack = max(1, _STACK_BYTES // (8 * n * n * (n + 1)))
        for start in range(0, gammas.size, per_stack):
            idx = np.arange(start, min(start + per_stack, gammas.size))
            yield (idx, *self.factor(gammas[idx]))

    @functools.cached_property
    def _pair_products(self):
        """(upper, x_real, z_t) for the pairs u = (j, k) with j <= k, in
        np.triu_indices order: x_real[m, 2u:2u+2] = (Re, Im) of
        c_u conj(S_mj) S_mk, with c_u = 1 on the diagonal and 2 above it,
        and z_t[n, u] = W_jn conj(W_kn). Built by the first capacitance()
        call, so a solver that only solves gamma = 0 never holds them."""
        j, k = upper = np.triu_indices(len(self._s))
        x = np.ascontiguousarray(self._s[:, j].conj() * self._s[:, k])
        x[:, j != k] *= 2.0
        z_t = np.ascontiguousarray((self._w[j] * self._w[k].conj()).T)
        return upper, x.view(float), z_t

    def capacitance(self, r):
        """The real (K, N, N) stack of G = E^T A^-1 E for a stack of R."""
        upper, x_real, z_t = self._pair_products
        b_t = np.multiply(z_t, r[:, upper[0], upper[1]][:, None, :],
                          order="C")
        return x_real @ b_t.view(float).transpose(0, 2, 1)

    def _apply_inverse(self, factors, b_eigen):
        """A^-1 b for the factored rates, from b_eigen = W b W^dag."""
        gammas, r, caps = factors
        t = r * b_eigen
        diag_y = np.einsum("kij,ij->ki", self._s @ t, self._s_h.T)
        rhs = gammas[:, None] * diag_y
        z = np.empty_like(rhs)
        # The LU is real, so the real and imaginary parts are solved in
        # turn: outside one_blas_thread(), as for a library caller,
        # OpenBLAS runs a two-column getrs on its threads.
        for k, (lu, piv) in enumerate(caps):
            z[k].real = _GETRS(lu, piv, rhs[k].real)[0]
            z[k].imag = _GETRS(lu, piv, rhs[k].imag)[0]
        t -= r * ((self._w * z[:, None, :]) @ self._w_h)
        return self._s @ t @ self._s_h

    def solve(self, factors, b):
        """The stack x with L(gamma) x = b for the factored rates, refined
        once against the exact operator
        -i(H_eff x - x H_eff^dag) + gamma (diag x - x), written out for
        complex x rather than through build_liouvillian, because x need
        not be Hermitian to roundoff.
        b is one N x N matrix or a stack of one per rate."""
        gammas = factors[0]
        x = self._apply_inverse(factors, self.to_eigenbasis(b))
        lx = -1j * (self._heff @ x - x @ self._heff_h)
        # Populations are exempt, exactly rather than by cancellation.
        damped = gammas[:, None, None] * x
        damped[:, self._diag[0], self._diag[1]] = 0.0
        lx -= damped
        return x + self._apply_inverse(factors, self.to_eigenbasis(b - lx))


class MomentSolver:
    """First two time moments of the evolution, S1 = int rho dt and
    S2 = int t rho dt, for one system and rho0 at any dephasing rate;
    solver.system is that system at gamma_phi = 0. A rho0 not exactly
    Hermitian raises ConfigurationError; the solver keeps no reference to
    the caller's array.

    S1 solves L S1 = -rho0; S2 solves L S2 = -S1
    (integration by parts moves the factor of t into a second solve).
    solver(gamma_phi) returns (S1, S2), and solver.first_moments(gammas)
    the (K, N, N) stacks of S1 and of its rate derivative dS1/dgamma over
    an array of K rates. L depends on gamma through gamma D, with
    D(x) = diag x - x, so dS1/dgamma = -L^-1 D(S1) = L^-1 (S1 - diag S1):
    a second solve with the factorisation S1 took. A rate that is not a
    real number >= 0 (a bool or a string among them) raises
    ConfigurationError.

    Two routes give the same numbers to roundoff:
    - Dense: L is build_liouvillian's real matrix on the coordinates of
      Hermitian matrices. Dephasing only adds -gamma_phi on the coherence
      coordinates, so the coherent part is built once, on the first dense
      solve (see _dense_matrix), and each rate takes one real LU
      factorization and one single right-hand-side solve per moment, and
      S1, S2 and dS1/dgamma come out exactly Hermitian. A condition
      estimate above 1e12, or an exact zero pivot, aborts with
      NonConvergentIntegralError: the integrals are then dominated by a
      near-null mode, which means some population has no decay channel to
      reach. Systems of fewer than 9 sites always take this route.
    - Eigenbasis (9 sites and up): H_eff is diagonalized once, and each
      rate costs one real N x N capacitance LU and solve plus O(N^4) work
      (see _Eigenbasis), with one step of iterative refinement per solve.

    The eigenbasis route falls back to the dense one, with its guard, when
    cond(S) of the eigenvectors exceeds 1e4 (every rate then goes dense),
    when some -i(lam_j - conj(lam_k)) - gamma_phi is smaller in magnitude
    than 1e-12 times the largest (a dark mode), or when the capacitance
    condition estimate exceeds 1e12. A fallback whose dense Liouvillian
    would exceed 1 GiB raises NonConvergentIntegralError instead.
    route_counts reports how many solves each route took, one per rate.

    first_moments takes the eigenbasis route for its rates in stacks: the
    pair products of S and W behind the capacitance matrix are computed
    once, by the first rate above 0 (so a solver that only solves
    gamma = 0 never holds them), and every step that is not a LAPACK call
    on one rate's capacitance matrix runs as one array operation over the
    stack, sized by _STACK_BYTES so that memory does not grow with the
    number of rates. Each rate keeps its own guards. The rates that the
    eigenbasis route does not take, every rate of a solver without one,
    are then solved densely one at a time, and the results equal
    first_moments of each rate alone bit for bit. No factorisation is
    kept between calls.
    """

    def __init__(self, sys, rho0):
        n = sys.n_sites
        if sys.recomb_rate == 0.0 and not np.any(sys.trap_rates > 0.0):
            raise ConfigurationError(
                "no decay channel anywhere (all kappa_m = 0 and Gamma = 0): "
                "int_0^inf rho dt diverges")
        self.n_sites = n
        self.system = (sys if sys.dephasing_rate == 0.0
                       else sys.with_dephasing(0.0))
        self._eigen = (_Eigenbasis.of(effective_hamiltonian(sys))
                       if n >= _EIGENBASIS_MIN_SITES else None)
        self._b0 = -_initial_state(rho0, n)
        self._dense_rhs = coordinates(self._b0)
        self._counts = {"eigenbasis": 0, "dense": 0}

    @property
    def route_counts(self):
        """Solves taken so far per route, {"eigenbasis": k, "dense": m}."""
        return dict(self._counts)

    def __call__(self, gamma_phi):
        gamma = as_rate("dephasing rate", gamma_phi)
        if self._eigen is not None:
            ok, factors = self._eigen.factor(np.array([gamma]))
            if ok[0]:
                return tuple(m[0] for m in self._eigen_solve(factors))
        return self._dense_solve(gamma)

    def first_moments(self, gammas):
        """(S1, dS1/dgamma), each the (K, N, N) stack over the rates of the
        1-d array gammas, equal bit for bit to first_moments of each rate
        alone. Every rate is checked before any is solved."""
        gammas = as_rate_grid("dephasing rates", gammas)
        n = self.n_sites
        out = np.empty((2, gammas.size, n, n), dtype=complex)
        dense = np.ones(gammas.size, dtype=bool)
        if self._eigen is not None:
            for idx, ok, factors in self._eigen.factor_stacks(gammas):
                out[:, idx[ok]] = self._eigen_solve(factors, derivative=True)
                dense[idx[ok]] = False
        for i in np.flatnonzero(dense):
            out[:, i] = self._dense_solve(float(gammas[i]), derivative=True)
        return out[0], out[1]

    def _eigen_solve(self, factors, derivative=False):
        """(S1, S2) stacked over the rates factored in factors, or
        (S1, dS1/dgamma) when derivative."""
        self._counts["eigenbasis"] += len(factors[0])
        s1 = self._eigen.solve(factors, self._b0)
        if derivative:
            rhs = s1.copy()
            np.einsum("kii->ki", rhs)[:] = 0.0
        else:
            rhs = -s1
        return s1, self._eigen.solve(factors, rhs)

    @functools.cached_property
    def _dense_matrix(self):
        """build_liouvillian's coherent matrix M and the off-diagonal part
        of each of its column 1-norms (gamma moves only the diagonal), built
        by the first dense solve; a system above _DENSE_MAX_BYTES is
        refused instead."""
        nbytes = 16 * self.n_sites ** 4
        if nbytes > _DENSE_MAX_BYTES:
            raise NonConvergentIntegralError(
                "the eigenbasis route does not apply and the dense "
                "Liouvillian of %d sites would take %.2f GiB, above the "
                "1 GiB limit of the dense fallback"
                % (self.n_sites, nbytes / 2 ** 30))
        matrix = build_liouvillian(self.system)
        offdiag = np.abs(matrix)
        np.einsum("ii->i", offdiag)[:] = 0.0
        return matrix, offdiag.sum(axis=0)

    def _dense_solve(self, gamma, derivative=False):
        """(S1, S2) at gamma, or (S1, dS1/dgamma) when derivative, from one
        real LU of M shifted by -gamma on the coherence coordinates. A
        condition estimate above 1e12, or an exact zero pivot, raises
        NonConvergentIntegralError."""
        self._counts["dense"] += 1
        matrix, offdiag_colsum = self._dense_matrix
        mat = matrix.copy(order="F")
        diag = np.einsum("ii->i", mat)
        diag[self.n_sites:] -= gamma
        factors, cond = _guarded_lu(mat,
                                    (offdiag_colsum + np.abs(diag)).max())
        if factors is None:
            raise NonConvergentIntegralError(
                "Liouvillian condition estimate %.3e exceeds 1e12: the "
                "integrals do not converge reliably; likely causes are a site "
                "(or subspace) with no reachable decay channel, or energies "
                "and rates too many orders of magnitude apart" % cond)
        lu, piv = factors
        y1 = _GETRS(lu, piv, self._dense_rhs)[0]
        if derivative:
            # S1 - diag S1: the coherence coordinates of S1 alone.
            rhs = y1.copy()
            rhs[:self.n_sites] = 0.0
        else:
            rhs = -y1
        return from_coordinates(y1), from_coordinates(_GETRS(lu, piv, rhs)[0])


def integrated_state(solver, gamma_phi):
    """solver(gamma_phi), the (S1, S2) of a MomentSolver. It is a function
    of its own only so that bench/tracing.py can wrap it: the tracer counts
    one call per grid point and reads n_sites from the first argument."""
    return solver(gamma_phi)
