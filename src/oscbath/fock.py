"""Brute-force referee: Lindblad integration in a truncated number basis.

Used by tests and the ``oracle`` CLI subcommand to validate every moment flow
in :mod:`oscbath.flows` against a direct density-matrix integration: it
consumes the same :class:`~oscbath.flows.QuadraticLindblad` generator the flow
is derived from.  The superoperator is assembled by band on the entries of
vec(rho) that are evolved (:class:`BandedSuperoperator`: per band, a value
for each kept entry and the kept entry it reads).  :func:`integrate` applies
its exponential to all of vec(rho) by a truncated Taylor series on short
substeps.  :func:`evolve_moments` returns only the moments and the trace, and
without a drive assembles and evolves only the entries of vec(rho) they read,
a set the generator maps into itself.  Both plan their substeps from the
superoperator's 1-norm before taking any, and refuse a plan above
``MAX_SUBSTEPS`` substeps or ``MAX_WORK`` substeps times evolved entries; a
plan that a lower bound on that norm, read off the generator's coefficients,
already puts above them is refused before the superoperator is assembled.
It loads NumPy only and shares no numerics with the flows it checks, which
take a Taylor step and doublings on 2n-square matrices.  Scope is
deliberately small (1-2 modes, low occupation) so runs stay seconds-fast.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .flows import QuadraticLindblad

__all__ = [
    "BandedSuperoperator",
    "check_cutoff",
    "build_superoperator",
    "integrate",
    "evolve_moments",
    "moments",
    "vacuum_rho",
    "thermal_rho",
    "coherent_rho",
]


# A one-diagonal operator is a pair (offset p, band) with op[i, i + p] = band[i]
# and zeros elsewhere.  Every ladder operator, and every product of two, is one.

def _shift(band: np.ndarray, p: int) -> np.ndarray:
    """band[i + p] at each i, zero where i + p falls outside."""
    out = np.zeros_like(band)
    n = band.size
    out[max(0, -p):min(n, n - p)] = band[max(0, p):min(n, n + p)]
    return out


def _product(a, b):
    """The product a b of two one-diagonal operators."""
    (pa, band_a), (pb, band_b) = a, b
    return pa + pb, band_a * _shift(band_b, pa)


def _dagger(a):
    """The adjoint of a one-diagonal operator."""
    p, band = a
    return -p, np.conj(_shift(band, -p))


def _ladders(n_modes: int, cutoff: int) -> list:
    """Each mode's annihilation operator on the truncated product space."""
    if n_modes not in (1, 2):
        raise ValueError("the Fock referee supports 1 or 2 modes only")
    dim = cutoff + 1
    ladder = np.append(np.sqrt(np.arange(1.0, dim)), 0.0)  # a[i, i + 1], zero at the edge
    if n_modes == 1:
        return [(1, ladder)]
    ones = np.ones(dim)
    return [(dim, np.kron(ladder, ones)), (1, np.kron(ones, ladder))]


class BandedSuperoperator:
    """The rows ``keep`` of a square matrix L, which L maps into themselves, by band.

    ``keep`` lists sorted indices of L.  Band b holds one value per kept row
    and the kept column that row reads:
    L[keep[i], keep[reads[b, i]]] = values[b, i].  A row without an entry in
    band b holds 0 and reads itself.  ``L @ y`` is the product on the kept
    entries, one gather per band.
    """

    def __init__(self, keep: np.ndarray, values: np.ndarray, reads: np.ndarray):
        self.keep = keep
        self.values = values
        self.reads = reads

    @property
    def size(self) -> int:
        return self.keep.size

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=complex)
        part = np.empty(self.size, dtype=complex)
        for values, reads in zip(self.values, self.reads):
            np.take(y, reads, out=part, mode="clip")  # in range; "raise" would buffer
            part *= values
            out += part
        return out

    def norm1(self) -> float:
        """The 1-norm, the largest column sum of |L|."""
        colsum = np.bincount(self.reads.ravel(), np.abs(self.values).ravel(),
                             minlength=self.size)
        return float(colsum.max())


# The longest vec(rho), (cutoff + 1)^(2 n) entries, the referee builds: two
# modes up to cutoff 25.  Its dozen or so bands, a complex value and an index
# per entry, then take about 160 MB (13 bands without a drive, 21 with one).
MAX_VEC_LENGTH = 2 ** 19


def check_cutoff(n_modes: int, cutoff: int):
    """ValueError unless 4 <= cutoff and vec(rho) has at most MAX_VEC_LENGTH entries."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    size = (cutoff + 1) ** (2 * n_modes)
    if size > MAX_VEC_LENGTH:
        raise ValueError(f"cutoff {cutoff} gives {n_modes} mode(s) a vec(rho) of {size} "
                         f"entries, above the referee's {MAX_VEC_LENGTH}")


def build_superoperator(lindblad: QuadraticLindblad, cutoff: int,
                        keep=None) -> BandedSuperoperator:
    """The master-equation generator on the entries ``keep`` of row-major vec(rho).

    Each mode is truncated at ``cutoff`` quanta, and ``keep`` lists sorted
    vec(rho) indices, all of them by default.  Every ladder operator and
    every product of two is one diagonal of the d x d Hilbert space, so the
    sandwich g A rho B with A at offset p and B at offset q sets row
    k = i d + j of vec(A rho B) to g A[i, i + p] B[j - q, j] vec(rho)[k + p d - q]:
    one band, evaluated only at the kept rows.  -i[H, .] and each dissipator
    term g (L . R^dag - {R^dag L, .}/2) are sums of such sandwiches; terms
    with a common offset p d - q share one band.  A nonzero entry that reads
    an index outside ``keep`` raises ``ValueError``: the kept entries would
    not evolve on their own.
    """
    n = lindblad.n_modes
    ops = _ladders(n, cutoff)
    check_cutoff(n, cutoff)
    d = (cutoff + 1) ** n
    keep = np.arange(d * d) if keep is None else np.asarray(keep)
    row, col = np.divmod(keep, d)
    eye = (0, np.ones(d))
    bands: dict[int, np.ndarray] = {}

    def sandwich(g, left, right):
        """Add g (left . right) to the bands."""
        (p, band_l), (q, band_r) = left, right
        offset = p * d - q
        term = g * band_l[row] * _shift(band_r, -q)[col]
        if offset in bands:
            bands[offset] += term
        else:
            bands[offset] = term

    ham = [(lindblad.h[j, k], _product(_dagger(ops[j]), ops[k]))
           for j in range(n) for k in range(n) if lindblad.h[j, k] != 0]
    if lindblad.drive is not None:
        for j in range(n):
            ham += [(lindblad.drive[j], _dagger(ops[j])), (np.conj(lindblad.drive[j]), ops[j])]
    for c, op in ham:
        sandwich(-1j * c, op, eye)
        sandwich(1j * c, eye, op)
    for j in range(n):
        for k in range(n):
            for g, left, right in ((lindblad.k_emit[j, k], ops[j], ops[k]),
                                   (lindblad.k_abs[j, k], _dagger(ops[j]), _dagger(ops[k]))):
                if g == 0:
                    continue
                right_dag = _dagger(right)
                rdl = _product(right_dag, left)
                sandwich(g, left, right_dag)
                sandwich(-0.5 * g, rdl, eye)
                sandwich(-0.5 * g, eye, rdl)
    offsets = sorted(bands)
    # popped, so the dict frees each band once it is stacked, before the reads are built
    values = np.array([bands.pop(p) for p in offsets]).reshape(len(offsets), keep.size)
    reads = np.tile(np.arange(keep.size), (len(offsets), 1))
    for p, band, read in zip(offsets, values, reads):
        entries = np.flatnonzero(band)
        cols = keep[entries] + p
        at = np.minimum(np.searchsorted(keep, cols), keep.size - 1)
        if np.any(keep[at] != cols):
            raise ValueError("the generator links kept and dropped vec(rho) entries")
        read[entries] = at
    return BandedSuperoperator(keep, values, reads)


# Substeps h keep h ||L||_1 <= THETA; Taylor terms are summed until two in a
# row together fall below EPS of the partial sum (Al-Mohy & Higham, SIAM J.
# Sci. Comput. 33, 488 (2011)), and at most MAX_TERMS, which at THETA = 6
# leaves a remainder below 6^56 / 56! ~ 1e-31 of the vector.  A plan takes at
# most MAX_SUBSTEPS substeps, and at most MAX_WORK substeps times evolved
# entries, the length of the band products each Taylor term takes.  The oracle's
# cap case (two modes at cutoff 14, t = 14) plans 1 724 substeps on the 6 693
# entries evolve_moments keeps, 1.15e7; the largest accepted oracle cases
# measured (two modes at cutoff 25, one driven mode at cutoff 723) take 6.5
# and 8.1 s on 2 vCPUs.
THETA = 6.0
EPS = 2.0 ** -53
MAX_TERMS = 55
MAX_SUBSTEPS = 10_000
MAX_WORK = 2 ** 24


def _norm(y: np.ndarray) -> float:
    """Largest |Re| or |Im| entry: a norm, and cheaper than the largest modulus."""
    return float(np.abs(y.view(float)).max())


def _taylor_action(lind: BandedSuperoperator, h: float, steps: int,
                   y: np.ndarray) -> np.ndarray:
    """e^{steps h L} y by truncated Taylor series on ``steps`` substeps of length h."""
    for _ in range(steps):
        total = y.copy()
        term = y
        last = _norm(term)
        for k in range(1, MAX_TERMS + 1):
            term = lind @ term
            term *= h / k
            total += term
            size = _norm(term)
            if last + size <= EPS * _norm(total):
                break
            last = size
        y = total
    if not np.isfinite(y).all():
        raise ArithmeticError("Lindblad integration produced a non-finite state")
    return y


def _propagate(lindblad: QuadraticLindblad, cutoff: int, rho0: np.ndarray, times,
               sectors=None):
    """The evolved vec(rho) indices, and vec(rho) on them at each of ``times``.

    Returns (keep, states): ``keep`` lists the evolved indices, every one
    unless ``sectors`` names the values of n_row - n_col to keep and the
    generator has no drive, and states[i] is vec(rho)[keep] at times[i].
    Each distinct time advances the state from the one before (t = 0 first)
    by ceil(dt ||L||_1 / THETA) Taylor substeps, none for dt = 0.  The whole
    plan is checked before the first substep, and first from ``_norm1_floor``
    before the bands are assembled.  The one planning and Taylor
    path of :func:`integrate` and :func:`evolve_moments`.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0)
            or np.any(np.diff(times) < 0)):
        raise ValueError("times must be a non-decreasing 1-D sequence of finite t >= 0")
    n = lindblad.n_modes
    check_cutoff(n, cutoff)
    d = (cutoff + 1) ** n
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 must be {d}x{d}")
    quanta = np.arange(cutoff + 1)
    if n == 2:
        quanta = np.add.outer(quanta, quanta).ravel()
    delta = np.subtract.outer(quanta, quanta).ravel()  # n_row - n_col of vec(rho)
    graded = sectors is not None and lindblad.drive is None
    keep = np.flatnonzero(np.isin(delta, sectors)) if graded else np.arange(d * d)
    t_eval, inverse = np.unique(times, return_inverse=True)
    dts = np.diff(t_eval, prepend=0.0)
    with np.errstate(over="ignore"):
        floor = _norm1_floor(lindblad, cutoff)  # sector 0, the diagonal, is always kept
    if math.isfinite(floor):  # else the assembled 1-norm is not finite either
        _plan(dts, floor, keep.size, t_eval[-1], "at least ")
    lind = build_superoperator(lindblad, cutoff, keep)
    norm1 = lind.norm1()
    if not math.isfinite(norm1):
        raise ArithmeticError("Lindblad superoperator has a non-finite 1-norm")
    steps = _plan(dts, norm1, keep.size, t_eval[-1])
    if not np.isfinite(rho0).all():  # all of it, also the entries the block drops
        raise ArithmeticError("Lindblad integration got a non-finite initial state")
    states = np.empty((t_eval.size, keep.size), dtype=complex)
    y = rho0.astype(complex).ravel()[keep]
    for i, (dt, n_steps) in enumerate(zip(dts, steps)):
        y = states[i] = _taylor_action(lind, dt / max(n_steps, 1.0), int(n_steps), y)
    return keep, states[inverse]


def _plan(dts, norm1: float, entries: int, t_end: float, bound: str = "") -> np.ndarray:
    """Taylor substeps per time step, h ||L||_1 <= THETA; ValueError above the caps.

    ``bound`` "at least " marks a lower bound on the 1-norm: a plan refused
    from it is refused from the 1-norm too.
    """
    steps = np.ceil(dts * norm1 / THETA)
    planned = steps.sum()
    if planned > MAX_SUBSTEPS or planned * entries > MAX_WORK:
        raise ValueError(f"integration to t = {t_end:.3g} needs {bound}{planned:.3g} Taylor "
                         f"substeps on {entries} entries (||L||_1 = {bound}{norm1:.3g}), above "
                         f"the referee's {MAX_SUBSTEPS} substeps or {MAX_WORK} substeps x entries")
    return steps


def _norm1_floor(lindblad: QuadraticLindblad, cutoff: int) -> float:
    """A lower bound on the generator's 1-norm on any kept set that holds the diagonal of rho.

    Its largest |Re L_kk| over the entries |m><m|: the anticommutators put
    -sum_j [K^E_jj m_j + K^A_jj (a a^dag)_{m_j}] there, where (a a^dag)_m is
    m + 1 below the cutoff and 0 at it, and the column of the entry holds it.
    Each mode's term peaks on its own, so no vec(rho)-sized array is formed.
    """
    levels = np.arange(cutoff + 1.0)
    raised = np.where(levels < cutoff, levels + 1.0, 0.0)
    return float(sum((lindblad.k_emit[j, j].real * levels
                      + lindblad.k_abs[j, j].real * raised).max()
                     for j in range(lindblad.n_modes)))


def integrate(lindblad: QuadraticLindblad, cutoff: int, rho0: np.ndarray, times):
    """Density matrices at each of ``times`` under the master equation truncated at ``cutoff``.

    ``times`` is a non-decreasing 1-D sequence of t >= 0; the result has shape
    (len(times), d, d).  The state is carried from each distinct requested
    time to the next by a Taylor action of the superoperator on all of
    vec(rho).  A non-finite generator or state raises ``ArithmeticError``,
    and a plan above ``MAX_SUBSTEPS`` substeps or ``MAX_WORK`` substeps
    times d^2 entries raises ``ValueError`` before any substep.
    """
    _keep, states = _propagate(lindblad, cutoff, rho0, times)
    d = rho0.shape[0]
    rho = states.reshape(-1, d, d)
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1))


def evolve_moments(lindblad: QuadraticLindblad, cutoff: int, rho0: np.ndarray, times):
    """Means, covariances and traces of the state at each of ``times``.

    Returns (means, covs, traces), equal to :func:`moments` and the trace of
    each :func:`integrate` state, with the same checks.  Without a drive
    every term of the generator conserves n_row - n_col of each vec(rho)
    entry, also at the truncation edge, so its sectors evolve independently.
    The moments, the trace and the edge weight read only sectors 0, 1 and 2
    (tr rho, <a^dag a>, edge weight; <a>; <a a>), so only those entries of
    vec(rho) are assembled and evolved: 6 693 of 50 625 for two modes at
    cutoff 14, which also sets the work the plan is checked against.  Each
    state is handed to :func:`moments` as a matrix holding only them.
    A drive mixes the sectors, so driven generators evolve all of vec(rho).
    """
    keep, states = _propagate(lindblad, cutoff, rho0, times, sectors=(0, 1, 2))
    n = lindblad.n_modes
    d = rho0.shape[0]
    means = np.empty((len(states), 2 * n))
    covs = np.empty((len(states), 2 * n, 2 * n))
    traces = np.empty(len(states))
    for i, y in enumerate(states):
        rho = np.zeros(d * d, dtype=complex)
        rho[keep] = y
        rho = rho.reshape(d, d)
        means[i], covs[i] = moments(rho, n, cutoff)
        traces[i] = np.trace(rho).real
    return means, covs, traces


def _expect(rho: np.ndarray, op) -> complex:
    """tr(rho op) for a one-diagonal operator op."""
    p, band = op
    diag = np.diagonal(rho, -p)  # rho[i + p, i]
    start = max(0, -p)
    return complex(np.dot(band[start:start + diag.size], diag))


def moments(rho: np.ndarray, n_modes: int, cutoff: int):
    """Mean vector and covariance matrix of rho in the package's conventions.

    Warns when occupation of the top truncation level exceeds 1e-6, which
    signals that the reported moments may be truncation-biased.
    """
    ops = _ladders(n_modes, cutoff)
    levels = np.diagonal(rho).real.reshape((cutoff + 1,) * n_modes)
    for j in range(n_modes):
        occupancy = float(levels.take(-1, axis=j).sum())
        if occupancy > 1e-6:
            warnings.warn(
                f"mode {j} occupies the truncation edge with weight {occupancy:.2e}; "
                "moments may be biased", UserWarning)
    amps = np.array([_expect(rho, a) for a in ops])
    mean = np.concatenate([np.sqrt(2.0) * amps.real, np.sqrt(2.0) * amps.imag])
    nmat = np.zeros((n_modes, n_modes), dtype=complex)
    mmat = np.zeros((n_modes, n_modes), dtype=complex)
    for j in range(n_modes):
        for k in range(n_modes):
            nmat[j, k] = (_expect(rho, _product(_dagger(ops[j]), ops[k]))
                          - np.conj(amps[j]) * amps[k])
            mmat[j, k] = _expect(rho, _product(ops[j], ops[k])) - amps[j] * amps[k]
    cxx = np.eye(n_modes) + 2.0 * (nmat.real + mmat.real)
    cpp = np.eye(n_modes) + 2.0 * (nmat.real - mmat.real)
    cxp = 2.0 * (mmat.imag + nmat.imag)
    cov = np.block([[cxx, cxp], [cxp.T, cpp]])
    return mean, 0.5 * (cov + cov.T)


def vacuum_rho(cutoff: int) -> np.ndarray:
    out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    out[0, 0] = 1.0
    return out


def thermal_rho(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal single-mode state, renormalized on the truncated space."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        return vacuum_rho(cutoff)
    p = (nbar / (1.0 + nbar)) ** np.arange(cutoff + 1)
    return np.diag(p / p.sum()).astype(complex)


def coherent_rho(alpha: complex, cutoff: int) -> np.ndarray:
    """Coherent state |alpha><alpha|, renormalized on the truncated space.

    Its number-basis amplitudes are e^{-|alpha|^2/2} alpha^n / sqrt(n!).  They
    are formed in log space relative to the largest, so a large |alpha| does
    not underflow; the dropped prefactor cancels in the renormalization.
    """
    if alpha == 0:
        return vacuum_rho(cutoff)
    levels = np.arange(cutoff + 1)
    log_mod = np.array([n * math.log(abs(alpha)) - 0.5 * math.lgamma(n + 1) for n in levels])
    amps = np.exp(log_mod - log_mod.max()) * (alpha / abs(alpha)) ** levels
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())
