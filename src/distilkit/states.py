"""Bipartite density operators, named state families, and their basic algebra.

Index convention (used by every module): a k-pair state lives on
``(H_A (x) H_B)^(x k)`` with tensor factors ordered pair-major,

    A1, B1, A2, B2, ..., Ak, Bk,

so entry ``(i, j)`` of the matrix refers to row/column multi-indices
``(a1 b1 ... ak bk)`` in that order, row-major.  The global A|B cut groups
all A factors before all B factors; :func:`to_global_cut` performs that
reordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg
from .errors import CapacityError, ParameterError, SamplingError

#: largest total operator dimension that dense storage will accept
DIM_CAP = 4096

#: tolerance for state validity (hermiticity, trace, positivity)
STATE_TOL = 1e-9

#: tolerance for exact linear-algebra identities (traces of contractions, ...)
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on k bipartite pairs in the pair-major index order.

    The constructor checks shape consistency only; physical validity
    (hermiticity / trace / positivity within ``STATE_TOL``) is checked by
    :func:`validate_state`, which library constructors guarantee by
    construction.
    """

    data: np.ndarray
    dimA: int
    dimB: int
    pairs: int = 1

    def __post_init__(self):
        if self.dimA < 1 or self.dimB < 1 or self.pairs < 1:
            raise ParameterError("dimA, dimB and pairs must be positive")
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ParameterError(
                f"matrix shape {arr.shape} does not match (dimA*dimB)^pairs = {self.dim}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _own(cls, arr: np.ndarray, dimA: int, dimB: int, pairs: int = 1) -> "BipartiteState":
        """The state whose data is ``arr`` itself, made read-only: for a fresh
        C-ordered complex (dim, dim) result that no caller keeps, in place of the
        constructor's checks and defensive copy.  ``arr`` may also be another
        state's read-only data, which is then shared: ``tensor_power`` at n = 1
        returns its input's buffer."""
        arr.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(data=arr, dimA=dimA, dimB=dimB, pairs=pairs)
        return state

    @property
    def pair_dim(self) -> int:
        return self.dimA * self.dimB

    @property
    def dim(self) -> int:
        return self.pair_dim ** self.pairs

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """Fine-grained factor list (A1, B1, ..., Ak, Bk)."""
        return (self.dimA, self.dimB) * self.pairs

    def __repr__(self):  # keep reprs short, matrices can be large
        return f"BipartiteState(dimA={self.dimA}, dimB={self.dimB}, pairs={self.pairs})"


class Family(str, Enum):
    WERNER = "werner"
    ISOTROPIC = "isotropic"
    MAX_ENTANGLED = "max_entangled"
    PRODUCT_PURE = "product_pure"
    RANDOM_MIXED = "random_mixed"
    RANDOM_PPT = "random_ppt"


@dataclass(frozen=True)
class StateFamilySpec:
    family: Family
    d: int = 2
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Violation:
    invariant: str
    magnitude: float


@dataclass(frozen=True)
class StateValidation:
    ok: bool
    violations: tuple[Violation, ...]
    state: Optional[BipartiteState]


def max_entangled_ket(d: int, normalized: bool = True) -> np.ndarray:
    """|phi> = sum_i |ii> on C^d (x) C^d, optionally divided by sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v / np.sqrt(d) if normalized else v


def phi_projector(d: int) -> np.ndarray:
    """Projector onto the d-dimensional maximally entangled state."""
    v = max_entangled_ket(d)
    return np.outer(v, v.conj())


def swap_operator(d: int) -> np.ndarray:
    """Flip operator F |i j> = |j i> on C^d (x) C^d: the identity with its two row
    factors swapped."""
    return np.eye(d * d).reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)


def werner_state(d: int, p: float) -> BipartiteState:
    """Mixture p * (normalized antisymmetric projector) + (1-p) * (normalized symmetric).

    Entangled (and NPT) exactly for p > 1/2; the partial-transpose minimum
    eigenvalue is min((1 - 2p)/d, p/(d(d-1)) + (1 - p)/(d(d+1))).
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"werner weight p must be in [0, 1], got {p}")
    f = swap_operator(d)
    eye = np.eye(d * d)
    anti = (eye - f) / (d * d - d)
    sym = (eye + f) / (d * d + d)
    return BipartiteState(p * anti + (1.0 - p) * sym, d, d)


def isotropic_state(d: int, p: float) -> BipartiteState:
    """p * phi_d + (1-p) * I/d^2; entangled for p > 1/(d+1)."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"isotropic weight p must be in [0, 1], got {p}")
    return BipartiteState(p * phi_projector(d) + (1.0 - p) * np.eye(d * d) / (d * d), d, d)


# random_ppt rejection sampling: attempts come in blocks; after each failed
# block the Ginibre ancilla dimension doubles, which pushes the proposal
# toward the maximally mixed state where PPT draws are plentiful.  (Plain
# Hilbert-Schmidt proposals essentially never hit PPT for d >= 3.)
PPT_BLOCK = 50
PPT_ATTEMPT_CAP = 2000


def _random_ppt(rng: np.random.Generator, d: int, cap: int) -> BipartiteState:
    n = d * d
    ancilla = n
    for attempt in range(cap):
        rho = linalg.random_density(rng, n, ancilla)
        state = BipartiteState(rho, d, d)
        if linalg.min_eig(partial_transpose(state)) >= -STATE_TOL:
            return state
        if (attempt + 1) % PPT_BLOCK == 0:
            ancilla *= 2
    raise SamplingError(f"no PPT state found in {cap} attempts (d={d})")


#: the parameters each family reads; any other is a ParameterError
_FAMILY_PARAMS = {Family.WERNER: {"p"}, Family.ISOTROPIC: {"p"}, Family.MAX_ENTANGLED: set(),
                  Family.PRODUCT_PURE: {"dB", "i", "j"}, Family.RANDOM_MIXED: {"dB"},
                  Family.RANDOM_PPT: {"attempt_cap"}}


def construct_state(spec: StateFamilySpec, seed: Optional[int] = None) -> BipartiteState:
    """Build a named-family state; ``seed`` is required for the random families,
    and a parameter the family does not read is rejected."""
    d, params = spec.d, spec.params
    if d < 2:
        raise ParameterError("local dimension must be >= 2")
    fam = Family(spec.family)
    if fam in (Family.RANDOM_MIXED, Family.RANDOM_PPT) and seed is None:
        raise ParameterError(f"family {fam.value} requires a seed")
    dB = int(params.get("dB", d)) if fam in (Family.PRODUCT_PURE, Family.RANDOM_MIXED) else d
    power_dim(d * dB, 1)  # the cap, before anything is allocated
    # a seeded product_pure draws random kets and reads no basis index
    reads = _FAMILY_PARAMS[fam] - ({"i", "j"} if seed is not None else set())
    unread = sorted(set(params) - reads)
    if unread:
        raise ParameterError(f"family {fam.value} does not take {', '.join(unread)}")
    rng = np.random.default_rng(seed) if seed is not None else None

    if fam in (Family.WERNER, Family.ISOTROPIC):
        if params.get("p") is None:
            raise ParameterError(f"family {fam.value} requires the weight p")
        make = werner_state if fam is Family.WERNER else isotropic_state
        return make(d, float(params["p"]))
    if fam is Family.MAX_ENTANGLED:
        return BipartiteState(phi_projector(d), d, d)
    if fam is Family.PRODUCT_PURE:
        if rng is not None:
            a = linalg.random_pure(rng, d)
            b = linalg.random_pure(rng, dB)
        else:
            ia, ib = int(params.get("i", 0)), int(params.get("j", 0))
            if not (0 <= ia < d and 0 <= ib < dB):
                raise ParameterError("basis indices out of range")
            a = np.eye(d, dtype=complex)[ia]
            b = np.eye(dB, dtype=complex)[ib]
        v = np.kron(a, b)
        return BipartiteState(np.outer(v, v.conj()), d, dB)
    if fam is Family.RANDOM_MIXED:
        return BipartiteState(linalg.random_density(rng, d * dB), d, dB)
    if fam is Family.RANDOM_PPT:
        return _random_ppt(rng, d, int(params.get("attempt_cap", PPT_ATTEMPT_CAP)))
    raise ParameterError(f"unknown family {spec.family!r}")


def power_dim(d: int, n: int) -> int:
    """Dimension d**n of an n-fold power of a d x d matrix, n >= 1, after the cap check.

    For d >= 2, d**n exceeds the cap once n passes ``DIM_CAP.bit_length()``, so
    the power is never computed for a larger n."""
    if n < 1:
        raise ParameterError("tensor power needs n >= 1")
    if d ** min(n, DIM_CAP.bit_length()) > DIM_CAP:
        raise CapacityError(f"result dimension {d}**{n} exceeds cap {DIM_CAP}")
    return d ** n


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over the leading axes.

    Each entry is one product a[i, j] * b[k, l], as in ``np.kron``, so two
    matrices get ``np.kron`` bit for bit."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power mat (x) ... (x) mat of each square matrix in a
    ``(..., d, d)`` stack, n >= 1; the cap is checked before anything is allocated.
    A single matrix gets the ``np.kron`` chain bit for bit."""
    power_dim(mat.shape[-1], n)
    out = mat
    for _ in range(n - 1):
        out = kron(out, mat)
    return out


def tensor(a: BipartiteState, b: BipartiteState) -> BipartiteState:
    """Tensor product; pair counts add and the pair-major index order is kept."""
    if (a.dimA, a.dimB) != (b.dimA, b.dimB):
        raise ParameterError("pair dimensions must match to concatenate pair lists")
    power_dim(a.pair_dim, a.pairs + b.pairs)
    return BipartiteState(kron(a.data, b.data), a.dimA, a.dimB, a.pairs + b.pairs)


def tensor_power(state: BipartiteState, n: int) -> BipartiteState:
    """n-fold tensor power; pair counts multiply."""
    return BipartiteState._own(kron_power(state.data, n), state.dimA, state.dimB, state.pairs * n)


def partial_trace(state: BipartiteState, keep: set[int]) -> BipartiteState:
    """Trace out all pairs not in ``keep`` (pair indices are 1-based)."""
    keep_set = set(keep)
    if not keep_set:
        raise ParameterError("keep set must be nonempty")
    if not keep_set <= set(range(1, state.pairs + 1)):
        raise ParameterError(f"keep set {keep_set} not within 1..{state.pairs}")
    k, m = state.pairs, state.pair_dim
    kept = sorted(p - 1 for p in keep_set)
    # one einsum over the row labels 0..k-1 and the column labels k..2k-1, in
    # which a traced pair's column takes its row label: only the diagonal is read
    cols = [k + p if p in kept else p for p in range(k)]
    out = np.einsum(state.data.reshape((m,) * (2 * k)), list(range(k)) + cols,
                    kept + [k + p for p in kept])
    side = m ** len(kept)
    return BipartiteState(out.reshape(side, side), state.dimA, state.dimB, len(kept))


def partial_transpose(state: BipartiteState) -> np.ndarray:
    """rho^Gamma across the global A|B cut, a raw Hermitian matrix whose rows and
    columns run over (A1..Ak, B1..Bk): transposing the aggregated B index transposes
    every B factor.  The copy is C-ordered because einsum's summation order, and so
    the searches' rounding, follows the layout."""
    pt4 = to_global_cut(state).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(pt4).reshape(state.dim, state.dim)


def trace_distance(a: BipartiteState, b: BipartiteState) -> float:
    """Half the trace norm of the difference (so values lie in [0, 1])."""
    if a.data.shape != b.data.shape:
        raise ParameterError("states must have equal dimensions")
    return 0.5 * linalg.trace_norm(a.data - b.data)


def validate_state(data: np.ndarray, dimA: int, dimB: int, pairs: int = 1) -> StateValidation:
    """Check the BipartiteState invariants; reports every violated one with its magnitude."""
    violations = []
    arr = np.asarray(data, dtype=complex)
    dim = (dimA * dimB) ** pairs
    if arr.shape != (dim, dim):
        violations.append(Violation("shape", float(abs(arr.size - dim * dim))))
        return StateValidation(False, tuple(violations), None)
    herm = linalg.herm_residual(arr)
    if herm > STATE_TOL:
        violations.append(Violation("hermiticity", herm))
    tr_err = abs(np.trace(arr).real - 1.0) + abs(np.trace(arr).imag)
    if tr_err > STATE_TOL:
        violations.append(Violation("trace", float(tr_err)))
    lo = linalg.min_eig(arr)
    if lo < -STATE_TOL:
        violations.append(Violation("positivity", float(lo)))
    if violations:
        return StateValidation(False, tuple(violations), None)
    return StateValidation(True, (), BipartiteState(arr, dimA, dimB, pairs))


def to_global_cut(state: BipartiteState) -> np.ndarray:
    """Reorder factors to (A1..Ak, B1..Bk): the operator on C^(D_A) (x) C^(D_B),
    D_A = dimA^k, as a ``(D_A, D_B, D_A, D_B)`` tensor, a read-only view of
    ``state.data`` for one pair."""
    k = state.pairs
    perm = tuple(2 * p for p in range(k)) + tuple(2 * p + 1 for p in range(k))
    cut = (state.dimA ** k, state.dimB ** k)
    return linalg.permute_factors(state.data, state.factor_dims, perm).reshape(cut + cut)


# ---------------------------------------------------------------------------
# JSON codec.  A complex array is the row-major list [[re, im], ...] of its
# entries; a state file is {"dimA", "dimB", "pairs", "matrix": [[re, im], ...]}
# in the pair-major index order.
# ---------------------------------------------------------------------------

def encode_complex(a: np.ndarray) -> list:
    """Row-major ``[[re, im], ...]`` list of the entries of ``a``."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def encode_matrix(m: np.ndarray) -> dict:
    """``{"shape", "entries"}`` record of a complex array."""
    return {"shape": list(m.shape), "entries": encode_complex(m)}


def decode_complex(entries, size: int) -> np.ndarray:
    """Inverse of :func:`encode_complex` for exactly ``size`` entries.

    Anything but a ``(size, 2)`` array of finite JSON numbers is a
    ParameterError; strings, booleans and nulls are rejected, not coerced.
    """
    try:
        arr = np.asarray(entries)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.shape != (size, 2):
        raise ParameterError(f"complex entries must be a list of {size} [re, im] pairs")
    kinds = set(map(type, itertools.chain.from_iterable(entries)))
    if arr.dtype.kind not in "if" or bool in kinds:
        raise ParameterError("complex entries must be JSON numbers")
    if not np.isfinite(arr).all():
        raise ParameterError("complex entries must be finite")
    return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(-1)


def state_to_dict(state: BipartiteState) -> dict:
    return {
        "dimA": state.dimA,
        "dimB": state.dimB,
        "pairs": state.pairs,
        "matrix": encode_complex(state.data),
    }


def state_from_dict(payload: dict) -> BipartiteState:
    try:
        dimA, dimB, pairs = payload["dimA"], payload["dimB"], payload["pairs"]
        entries = payload["matrix"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed state payload: {exc}") from exc
    if not all(type(n) is int for n in (dimA, dimB, pairs)):
        raise ParameterError("dimA, dimB and pairs must be JSON integers")
    if min(dimA, dimB, pairs) < 1:
        raise ParameterError("dimA, dimB and pairs must be positive")
    # pairs of dimension 2 or more fill DIM_CAP within log2(DIM_CAP) pairs, so no
    # state needs more; checking pairs first keeps the power computed next small
    max_pairs = DIM_CAP.bit_length() - 1
    if pairs > max_pairs:
        raise ParameterError(f"pairs must be at most {max_pairs} (dimension cap {DIM_CAP})")
    dim = (dimA * dimB) ** pairs
    if dim > DIM_CAP:
        raise ParameterError(f"(dimA*dimB)**pairs exceeds the dimension cap {DIM_CAP}")
    flat = decode_complex(entries, dim * dim)
    # |rho_ij| <= sqrt(rho_ii rho_jj) <= 1 for a state, so larger entries are
    # rejected before any arithmetic on them can overflow
    if not (np.abs(flat) <= 1 + STATE_TOL).all():
        raise ParameterError("state entries must have modulus at most 1")
    report = validate_state(flat.reshape(dim, dim), dimA, dimB, pairs)
    if not report.ok:
        raise ParameterError(f"state file violates invariants: {report.violations}")
    return report.state


def read_json(path):
    """Parse a JSON file; a missing or malformed file is a ParameterError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParameterError(f"file not found: {path}") from exc
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` as strict JSON.  The whole text is serialized before the
    file is opened, so a NaN or an infinity is a ParameterError that leaves no file."""
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text)


def save_state(state: BipartiteState, path) -> None:
    write_json(path, state_to_dict(state))


def load_state(path) -> BipartiteState:
    return state_from_dict(read_json(path))
