"""Independent references and output checks for the benchmark.

Nothing in this module imports distilkit.  Every check compares a program
output with a closed form, with a property the method must have, or with a
plain-numpy recomputation (own index transposes, own permutation matrices,
own partial traces).  A check returns a list of violation messages; an empty
list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: tolerance for exact linear-algebra identities
EXACT = 1e-12
#: tolerance for certificate values and closed forms of optimizer outputs
CERT = 1e-9
#: margin above 1/2 that counts as a distillable filtered singlet fraction
F2_MARGIN = 1e-6
#: largest mixture whose partial transpose gets a dense eigenvalue check
PPT_CHECK_DIM = 256


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def phi(d: int) -> np.ndarray:
    """Projector onto (1/sqrt d) sum_i |ii>."""
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return np.outer(v, v)


def flip(d: int) -> np.ndarray:
    """F|ij> = |ji>, built from the reshaped identity."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def werner(d: int, p: float) -> np.ndarray:
    eye, f = np.eye(d * d), flip(d)
    return p * (eye - f) / (d * d - d) + (1 - p) * (eye + f) / (d * d + d)


def werner_pt_min(d: int, p: float) -> float:
    """Smallest eigenvalue of the partially transposed Werner state.

    rho = a I + b F has rho^Gamma = a I + b d phi_d, with eigenvalues
    a + b d = (1 - 2p)/d (once) and a = p/(d(d-1)) + (1-p)/(d(d+1)).
    """
    return min((1 - 2 * p) / d, p / (d * (d - 1)) + (1 - p) / (d * (d + 1)))


def global_cut(mat: np.ndarray, dA: int, dB: int, pairs: int) -> np.ndarray:
    """Reorder pair-major factors (A1 B1 A2 B2 ...) to (A1 A2 ... | B1 B2 ...)."""
    dims = (dA, dB) * pairs
    order = [2 * p for p in range(pairs)] + [2 * p + 1 for p in range(pairs)]
    n = mat.shape[0]
    return mat.reshape(dims + dims).transpose(order + [2 * pairs + o for o in order]).reshape(n, n)


def partial_transpose(mat: np.ndarray, dA: int, dB: int, pairs: int = 1) -> np.ndarray:
    """Transpose every B factor; returns the operator in pair-major order."""
    dims = (dA, dB) * pairs
    n2 = 2 * pairs
    axes = list(range(2 * n2))
    for p in range(pairs):
        b = 2 * p + 1
        axes[b], axes[n2 + b] = axes[n2 + b], axes[b]
    n = mat.shape[0]
    return mat.reshape(dims + dims).transpose(axes).reshape(n, n)


def pair_marginal(mat: np.ndarray, m: int, k: int, j: int) -> np.ndarray:
    """Reduced operator of pair slot j (0-based) of a k-pair operator."""
    t = mat.reshape((m,) * (2 * k))
    letters = "abcdefghij"
    rows = list(letters[:k])
    cols = list(letters[:k])
    rows[j], cols[j] = "x", "y"
    return np.einsum("".join(rows) + "".join(cols) + "->xy", t)


def swap_slots(mat: np.ndarray, dims: tuple[int, ...], i: int, j: int) -> np.ndarray:
    """Conjugate by the unitary that exchanges tensor factors i and j."""
    n = len(dims)
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    side = mat.shape[0]
    return mat.reshape(dims + dims).transpose(perm + [n + q for q in perm]).reshape(side, side)


def swap_deviation(mat: np.ndarray, dims: tuple[int, ...], i: int, j: int) -> float:
    """max |P M P^dag - M| for the factor exchange P of ``swap_slots``.

    Compares block by block along the first row factor, so a 1024 x 1024
    operator needs a few MB of temporaries rather than two full copies:
    the check must stay under the program's own peak RSS.
    """
    n = len(dims)
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    t = mat.reshape(dims + dims)
    moved = t.transpose(perm + [n + q for q in perm])
    return max(float(np.abs(moved[r] - t[r]).max()) for r in range(dims[0]))


def permutation_matrix(m: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """0/1 matrix sending |i_1 .. i_k> to the basis vector whose slot perm[s] holds i_s."""
    size = m ** k
    out = np.zeros((size, size))
    for col, idx in enumerate(itertools.product(range(m), repeat=k)):
        moved = [0] * k
        for s, val in enumerate(idx):
            moved[perm[s]] = val
        row = 0
        for val in moved:
            row = row * m + val
        out[row, col] = 1.0
    return out


def group_average(mat: np.ndarray, m: int, k: int) -> np.ndarray:
    """(1/k!) sum_pi P_pi M P_pi^T with explicitly built permutation matrices."""
    acc = np.zeros(mat.shape, dtype=complex)
    for perm in itertools.permutations(range(k)):
        p = permutation_matrix(m, k, perm)
        acc += p @ mat @ p.T
    return acc / math.factorial(k)


def symmetric_projector(m: int, k: int) -> np.ndarray:
    """Projector onto the permutation-symmetric subspace of (C^m)^(x k)."""
    perms = itertools.permutations(range(k))
    return sum(permutation_matrix(m, k, perm) for perm in perms) / math.factorial(k)


def filtered_fraction(mat_cut: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """<phi_t| (A x B) rho (A x B)^dag |phi_t> / tr(...) with t = rows of A."""
    op = np.kron(A, B)
    out = op @ mat_cut @ op.conj().T
    return float(np.real(np.trace(out @ phi(A.shape[0]))) / np.real(np.trace(out)))


def schmidt_values(vec: np.ndarray, dA: int, dB: int) -> np.ndarray:
    return np.linalg.svd(np.asarray(vec).reshape(dA, dB), compute_uv=False)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(hermitize(a - b))).sum())


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_density(rng: np.random.Generator, n: int, ancilla: int | None = None) -> np.ndarray:
    """Induced Ginibre draw G G^dag / tr, with G of shape n x ancilla."""
    g = rng.standard_normal((n, ancilla or n)) + 1j * rng.standard_normal((n, ancilla or n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_ppt_pair(rng: np.random.Generator) -> np.ndarray:
    """A two-qubit state with PT eigenvalues >= 1e-6, by rejection with a wide ancilla."""
    while True:
        rho = random_density(rng, 4, ancilla=16)
        if min_eig(partial_transpose(rho, 2, 2)) >= 1e-6:
            return rho


# ---------------------------------------------------------------------------
# certify: single-state certificates
# ---------------------------------------------------------------------------

def close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, want {want!r} (tol {tol:g})"]
    return []


def check_filter_value(name: str, mat_cut: np.ndarray, value: float, A, B) -> list[str]:
    """The returned filter pair, applied with numpy, reproduces the value."""
    return close(f"{name} filter value", filtered_fraction(mat_cut, np.asarray(A), np.asarray(B)),
                  value, CERT)


def check_schmidt_certificate(name: str, pt_cut: np.ndarray, dA: int, dB: int,
                              value: float, vec) -> list[str]:
    """Schmidt rank <= 2 and <v| rho^Gamma |v> equals the reported value."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    errs = []
    s = schmidt_values(v, dA, dB)
    if s.size > 2 and s[2] > CERT * max(s[0], 1.0):
        errs.append(f"{name} vector has Schmidt rank > 2 (s3 = {s[2]:.3e})")
    expect = float(np.real(v.conj() @ pt_cut @ v))
    return errs + close(f"{name} vector expectation", expect, value, CERT)


def check_certify(mat: np.ndarray, dA: int, dB: int, out: dict,
                  f2_closed_form: float | None = None) -> list[str]:
    """Checks for one certify item.

    ``out`` holds plain values: ``ppt`` = (flag, min eigenvalue),
    ``f2`` / ``fD`` = (value, A, B), ``sc`` / ``n2`` = (value, vector).
    """
    errs = []
    pt = partial_transpose(mat, dA, dB)
    lam = min_eig(pt)
    ppt = lam >= -CERT

    flag, lo = out["ppt"]
    if bool(flag) != ppt:
        errs.append(f"is_ppt flag {flag} but own min eigenvalue is {lam!r}")
    errs += close("is_ppt eigenvalue", lo, lam, EXACT)

    f2v, fa, fb = out["f2"]
    errs += check_filter_value("f2", mat, f2v, fa, fb)
    if f2_closed_form is not None:
        errs += close("f2 closed form", f2v, f2_closed_form, CERT)

    scv, scvec = out["sc"]
    errs += check_schmidt_certificate("single-copy", pt, dA, dB, scv, scvec)
    if ppt:
        if f2v > 0.5 + F2_MARGIN:
            errs.append(f"PPT input has f2 = {f2v!r} > 1/2")
        if scv < -CERT:
            errs.append(f"PPT input has a single-copy violation {scv!r}")
    if dA == dB == 2:
        # every two-qubit vector has Schmidt rank <= 2, and NPT <=> distillable
        errs += close("2x2 search minimum", scv, lam, CERT)
        if (f2v > 0.5 + F2_MARGIN) != (lam < 0):
            errs.append(f"Horodecki: f2 = {f2v!r} but own min eigenvalue is {lam!r}")

    if "n2" in out:
        n2v, n2vec = out["n2"]
        power = np.kron(mat, mat)
        pt2 = global_cut(partial_transpose(power, dA, dB, 2), dA, dB, 2)
        errs += check_schmidt_certificate("two-copy", pt2, dA * dA, dB * dB, n2v, n2vec)
        if ppt and n2v < -CERT:
            errs.append(f"PPT input has a two-copy violation {n2v!r}")

    if "fD" in out:
        fdv, da, db = out["fD"]
        errs += check_filter_value("fD", mat, fdv, da, db)
        if ppt and fdv > 1.0 / np.asarray(da).shape[0] + F2_MARGIN:
            errs.append(f"PPT input has fD = {fdv!r} above 1/D")
    return errs


# ---------------------------------------------------------------------------
# extend: symmetric extensions
# ---------------------------------------------------------------------------

def check_twirl(rho: np.ndarray, out: np.ndarray, m: int, k: int) -> list[str]:
    """Group average over pair permutations.

    For k <= 3 the output must equal an explicit average over permutation
    matrices.  For every k it must be invariant under each adjacent pair
    transposition; those generate S_k, so the output is a fixed point of the
    twirl and the twirl is idempotent on it.  Its single-pair marginals must
    all equal the mean of the input's marginals.
    """
    errs = []
    if k <= 3:
        ref = group_average(rho, m, k)
        dev = float(np.abs(out - ref).max())
        if dev > EXACT:
            errs.append(f"twirl differs from the permutation-matrix average by {dev:.3e}")
    dims = (m,) * k
    for j in range(k - 1):
        dev = swap_deviation(out, dims, j, j + 1)
        if dev > EXACT:
            errs.append(f"twirl not invariant under pair transposition ({j + 1} {j + 2}): {dev:.3e}")
    mean = sum(pair_marginal(rho, m, k, j) for j in range(k)) / k
    for j in range(k):
        dev = float(np.abs(pair_marginal(out, m, k, j) - mean).max())
        if dev > EXACT:
            errs.append(f"twirl marginal of pair {j + 1} is off the mean marginal by {dev:.3e}")
    return errs


def check_double_twirl(out: np.ndarray, dA: int, dB: int, k: int) -> list[str]:
    """Invariant under A-only and under B-only adjacent pair transpositions."""
    errs = []
    dims = (dA, dB) * k
    for j in range(k - 1):
        for side, off in (("A", 0), ("B", 1)):
            dev = swap_deviation(out, dims, 2 * j + off, 2 * j + 2 + off)
            if dev > EXACT:
                errs.append(f"double twirl not invariant under {side}-side transposition "
                            f"({j + 1} {j + 2}): {dev:.3e}")
    return errs


def check_mixture(marginals: list[np.ndarray], mixture: np.ndarray, weights, members,
                  dA: int, dB: int, k: int) -> list[str]:
    """Marginals equal the ensemble average; PPT members give a PPT mixture.

    The PPT test is a dense eigenproblem, so it runs up to dimension
    ``PPT_CHECK_DIM`` only: at 1024 its copies would lift the benchmark's
    peak RSS above the program's own.
    """
    errs = []
    avg = sum(w * np.asarray(s) for w, s in zip(weights, members))
    for j, marg in enumerate(marginals):
        dev = float(np.abs(np.asarray(marg) - avg).max())
        if dev > EXACT:
            errs.append(f"mixture marginal of pair {j + 1} is off the ensemble average by {dev:.3e}")
    if len(marginals) != k:
        errs.append(f"expected {k} marginals, got {len(marginals)}")
    if mixture.shape[0] <= PPT_CHECK_DIM and all(
            min_eig(partial_transpose(np.asarray(s), dA, dB)) >= -CERT for s in members):
        lo = min_eig(partial_transpose(mixture, dA, dB, k))
        if lo < -CERT:
            errs.append(f"PPT members give a mixture with PT eigenvalue {lo!r}")
    return errs


def check_dual(flag: bool, expect: bool) -> list[str]:
    if bool(flag) != expect:
        return [f"symmetric_dual_positive returned {flag}, want {expect}"]
    return []


def check_product_mixture(distance: float, target: np.ndarray, weights, members, k: int) -> list[str]:
    """An exactly representable input has distance ~0, and the returned
    ensemble rebuilds the input."""
    errs = []
    if not distance <= 1e-6:
        errs.append(f"exact input has product-mixture distance {distance!r}")
    rebuilt = np.zeros(target.shape, dtype=complex)
    for w, s in zip(weights, members):
        power = np.asarray(s)
        for _ in range(k - 1):
            power = np.kron(power, np.asarray(s))
        rebuilt += w * power
    dist = trace_distance(rebuilt, target)
    if not dist <= 1e-6:
        errs.append(f"returned ensemble is {dist:.3e} away from the input")
    return errs


# ---------------------------------------------------------------------------
# cli: artifacts and exit codes
# ---------------------------------------------------------------------------

def matrix_from_payload(payload: dict) -> np.ndarray:
    """Decode a state artifact's row-major [[re, im], ...] matrix."""
    dim = (int(payload["dimA"]) * int(payload["dimB"])) ** int(payload["pairs"])
    flat = np.asarray(payload["matrix"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)


def matrix_to_payload(mat: np.ndarray, dA: int, dB: int, pairs: int = 1) -> dict:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return {"dimA": dA, "dimB": dB, "pairs": pairs,
            "matrix": np.stack([flat.real, flat.imag], axis=1).tolist()}


def filter_from_payload(payload: dict) -> np.ndarray:
    flat = np.asarray(payload["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(payload["shape"])


def check_exit(code: int, verdict: bool | None) -> list[str]:
    """Exit 1 exactly when the verdict is positive; 0 for a verb without one."""
    want = 1 if verdict else 0
    if code != want:
        return [f"exit code {code}, verdict {verdict} wants {want}"]
    return []


def stdout_fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
