"""Structure-exploiting sparse MNA: compile the pattern once, solve small.

The batched dense solver (:func:`repro.analysis.compiled.solve_tensor_batch`)
refactorizes a full ``(n, n)`` admittance matrix per candidate per
frequency even though only a handful of stamp entries differ between
candidates of one topology.  This module compiles that structure away:

* **Static condensation (Schur complement).**  Nodes are partitioned
  into an *external* set E — every node touched by a candidate-dependent
  stamp entry, plus the ports and probes — and the *internal* remainder
  I.  The I-block of the admittance matrix is candidate-independent, so
  it is factorized **once per topology per frequency** as a
  ``scipy.sparse`` LU with one shared CSC pattern (the symbolic
  factorization is computed from the union sparsity over the grid and
  reused for every frequency's numeric factorization).  What remains per
  candidate is the dense ``(m, m)`` reduced system
  ``M = D - C A^-1 B`` with ``m = |E| << n`` — its candidate-independent
  part and the condensed right-hand sides are precomputed.
* **Adjoint (transpose) solve.**  Downstream only ever consumes the
  port/probe *rows* of ``Y^-1 @ rhs``.  Solving ``M^T w = e_out`` for
  the few output columns and contracting ``w^T @ rhs_red`` replaces a
  K-column forward solve with an ``n_out``-column one (K ~ 28 noise +
  port columns vs. ``n_out = 2`` ports for the LNA).
* **Sherman-Morrison / Woodbury low-rank updates.**  When only a few
  stamp groups differ across the batch (bias corners, single-element
  sweeps), ``M_i^T = M_0^T + U diag(d_i) V^T`` with one rank-1 factor
  pair per active group; the batch then costs one reference
  factorization plus tiny ``(r, r)`` solves.  An exact a-posteriori
  residual — computable entirely in the low-rank factors — falls any
  ill-conditioned candidate back to full numeric refactorization.

The plan assembles the *transposed* reduced system directly (scatter at
swapped coordinates), so no ``(B, F, m, m)`` transpose copy is ever
made, and the final contraction is a plain broadcast ``matmul`` —
einsum-shaped, GPU-portable, no Python per-candidate loops.

Everything here is topology-level machinery; tier selection, noise
post-processing, and failure isolation live with the one caller,
:class:`repro.core.engine.CompiledTemplate` (``solver="sparse"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

try:  # scipy is a declared dependency; tolerate its absence anyway.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    _HAVE_SPLU = True
except ImportError:  # pragma: no cover - scipy ships with the package
    _HAVE_SPLU = False

from repro.analysis.conditioning import observe_residual
from repro.obs import metrics as _obs_metrics

__all__ = [
    "PatternError",
    "MutableGroup",
    "SparsePlan",
    "build_plan",
    "structural_costs",
    "WOODBURY_RESIDUAL_TOL",
]

#: Relative residual above which a Woodbury-updated candidate is
#: refactorized in full.  The residual check is exact (computed in the
#: low-rank factors, see :meth:`SparsePlan.solve_rows`), so this is a
#: pure accuracy/speed knob: candidates under the threshold agree with
#: full refactorization to well below the 1e-9 solver contract.
WOODBURY_RESIDUAL_TOL = 1e-10


class PatternError(RuntimeError):
    """The tensor's structure cannot support a sparse plan.

    Raised at plan-build time — e.g. the constant internal block is
    singular (its Schur complement does not exist even though the full
    matrix may be fine), or sparse LU support is unavailable.  Callers
    fall back to the dense path.
    """


@dataclass(frozen=True)
class MutableGroup:
    """One named set of stamp entries sharing a per-candidate coefficient.

    ``y[..., rows, cols] += signs * coefficient`` is the group's dense
    stamp; the (row, col) pairs within one group are unique.  This is
    the plan-level twin of :class:`repro.core.engine.StampSlot`.
    """

    name: str
    rows: np.ndarray   # (k,) int, global node indices
    cols: np.ndarray   # (k,) int
    signs: np.ndarray  # (k,) float


@dataclass
class _LocalGroup:
    """A mutable group lowered to reduced-system coordinates."""

    name: str
    lrows: np.ndarray   # (k,) int, indices into the external set
    lcols: np.ndarray
    signs: np.ndarray
    # Rank-1 factors of the *transposed* stamp, M^T += coeff * u @ v^T,
    # or None when the group's stamp matrix has rank > 1.
    u_t: Optional[np.ndarray]
    v_t: Optional[np.ndarray]


def structural_costs(n_nodes: int, n_reduced: int, n_rhs: int,
                     n_out: int) -> Dict[str, float]:
    """Deterministic per-(candidate x frequency) flop estimates.

    ``dense`` is an LU of the full ``(n, n)`` system plus its K-column
    back-substitution; ``sparse`` is the reduced assembly, the
    ``(m, m)`` LU with ``n_out`` adjoint columns, and the transfer
    contraction.  Plan compilation (the per-topology splu sweep) is
    excluded — it amortizes over the whole run.  The estimates are pure
    arithmetic on structure, independent of timing, so they serve as
    a reproducible work count for each tier.
    """
    n, m = float(n_nodes), float(n_reduced)
    dense = (2.0 / 3.0) * n ** 3 + n ** 2 * n_rhs
    sparse = (
        (2.0 / 3.0) * m ** 3
        + m ** 2 * (n_out + 1)
        + m * n_out * n_rhs
    )
    return {"dense": dense, "sparse": sparse}


def _shared_pattern_lu(a_stack: np.ndarray):
    """Per-frequency sparse LU of a constant block with one CSC pattern.

    The structural pattern is the union of nonzeros over the grid, so
    the symbolic analysis (column order, fill) is shared: each
    frequency only swaps in its numeric values.  Falls back to a dense
    batched inverse when scipy's splu is unavailable.  Returns a
    callable ``solve(f_index, rhs)``.
    """
    n_freq, n_int, _ = a_stack.shape
    if not _HAVE_SPLU:  # pragma: no cover - scipy ships with the package
        try:
            a_inv = np.linalg.inv(a_stack)
        except np.linalg.LinAlgError as exc:
            raise PatternError(
                f"constant internal block is singular: {exc}"
            ) from None
        return lambda f, rhs: a_inv[f] @ rhs
    mask = np.any(a_stack != 0, axis=0)
    csc_cols, csc_rows = np.nonzero(mask.T)  # column-major order
    indices = csc_rows.astype(np.int32)
    indptr = np.searchsorted(csc_cols, np.arange(n_int + 1)).astype(np.int32)
    factors = []
    for f in range(n_freq):
        data = a_stack[f][csc_rows, csc_cols]
        matrix = csc_matrix((data, indices, indptr), shape=(n_int, n_int))
        try:
            factors.append(splu(matrix))
        except RuntimeError as exc:
            raise PatternError(
                f"constant internal block is singular at frequency "
                f"index {f}: {exc}"
            ) from None
    return lambda f, rhs: factors[f].solve(rhs)


def _rank1_factors(lrows, lcols, signs, m):
    """Rank-1 factors ``(u_t, v_t)`` of one group's transposed stamp.

    The group stamps ``P = sum signs e_r e_c^T`` into ``M``; when P has
    rank 1 it factors as ``a b^T``, so ``M^T`` gains
    ``coeff * b a^T`` — returned as ``(u_t, v_t) = (b, a)``.  Returns
    ``None`` for genuinely higher-rank groups (Woodbury then skips the
    plan's low-rank path).
    """
    pattern = np.zeros((m, m))
    np.add.at(pattern, (lrows, lcols), signs)
    left, singular, right_t = np.linalg.svd(pattern)
    if singular[0] == 0.0:
        zero = np.zeros(m)
        return zero, zero
    if singular.size > 1 and singular[1] > 1e-12 * singular[0]:
        return None
    scale = np.sqrt(singular[0])
    return right_t[0] * scale, left[:, 0] * scale


class SparsePlan:
    """A compiled reduced-system solve plan for one topology.

    Built by :func:`build_plan`; holds the per-frequency condensed
    system (transposed Schur base, condensed right-hand sides, adjoint
    output columns) plus the lowered mutable groups.  One plan is
    cached per topology and reused for every candidate batch.
    """

    def __init__(self, n_nodes, external, internal, groups, schur_t,
                 rhs_red, e_out, h_out=None,
                 residual_tol=WOODBURY_RESIDUAL_TOL):
        self.n_nodes = int(n_nodes)
        self.external = external            # (m,) global node indices
        self.internal = internal            # (n - m,) global node indices
        self._groups: List[_LocalGroup] = groups
        self._schur_t = schur_t             # (F, m, m), transposed
        self._rhs_red = rhs_red             # (F, m, K)
        self._e_out = e_out                 # (F, m, n_out) adjoint columns
        self._h_out = h_out                 # (F, n_out, K) offset, or None
        # Adjoint columns for condensed-out rows are rows of A^-1 B, not
        # unit vectors; the Woodbury residual normalizes by their size.
        self._res_scale = max(1.0, float(np.max(np.abs(e_out))))
        self.residual_tol = float(residual_tol)
        #: Which update strategy the last :meth:`solve_rows` used
        #: (``"full"`` or ``"woodbury"``); diagnostic only.
        self.last_update: Optional[str] = None
        # Assembly scratch, keyed by batch size: the (B, F, m, m)
        # buffer never escapes a solve, so reusing it saves the
        # dominant allocation of the per-batch hot path.  It is shared
        # by every call, so a plan must be used by one thread at a
        # time: two concurrent equal-sized solves overwrite each
        # other's reduced systems.  Parallelism goes through worker
        # processes, each with its own plan.
        self._scratch: Dict[int, np.ndarray] = {}
        self._rhs_tiled: Dict[int, np.ndarray] = {}

    @property
    def n_reduced(self) -> int:
        return self._schur_t.shape[-1]

    @property
    def n_freq(self) -> int:
        return self._schur_t.shape[0]

    @property
    def n_rhs(self) -> int:
        return self._rhs_red.shape[-1]

    @property
    def n_out(self) -> int:
        return self._e_out.shape[-1]

    # -- assembly ------------------------------------------------------------
    def _assemble_t(self, coeffs, n_batch: int) -> np.ndarray:
        """The (B, F, m, m) *transposed* reduced systems.

        Scattering at swapped local coordinates builds ``M^T`` directly
        — the adjoint solve never materializes ``M`` itself.
        """
        mt = self._scratch.get(n_batch)
        if mt is None or mt.shape[0] != n_batch:
            mt = np.empty((n_batch,) + self._schur_t.shape, dtype=complex)
            self._scratch = {n_batch: mt}
        np.copyto(mt, self._schur_t)
        for group in self._groups:
            c = np.asarray(coeffs[group.name], dtype=complex)
            if c.ndim == 1:
                c = c[None, :]
            mt[..., group.lcols, group.lrows] += group.signs * c[..., None]
        return mt

    def sample_matrix(self, coeffs, candidate: int = 0,
                      f_index: Optional[int] = None) -> np.ndarray:
        """One assembled reduced matrix ``M`` for conditioning guards.

        Default: the mid-grid matrix of *candidate* — the sparse twin
        of the dense path's mid-band ``condition_log10`` sample.
        """
        f = self.n_freq // 2 if f_index is None else int(f_index)
        mt = self._schur_t[f].copy()
        for group in self._groups:
            c = np.asarray(coeffs[group.name], dtype=complex)
            fi = f if c.shape[-1] != 1 else 0  # frequency-flat coeffs
            value = c[fi] if c.ndim == 1 else c[candidate, fi]
            np.add.at(mt, (group.lcols, group.lrows), group.signs * value)
        return mt.T.copy()

    # -- solving -------------------------------------------------------------
    def solve_rows(self, coeffs, n_batch: int,
                   update: str = "full") -> np.ndarray:
        """Port/probe rows of ``Y^-1 @ rhs`` for a candidate batch.

        *coeffs* maps group name -> ``(B, F)`` (or broadcast ``(F,)``)
        complex coefficients.  Returns ``(B, F, n_out, K)``.  *update*
        selects the numeric strategy:

        * ``"full"`` — refactorize every candidate's reduced system;
        * ``"woodbury"`` — low-rank update from candidate 0's
          factorization (requires rank-1 groups; ill-conditioned
          candidates are residual-checked and refactorized in full);
        * ``"auto"`` — Woodbury when few enough groups are *active*
          (differ across the batch) to win, full otherwise.  The choice
          depends only on the coefficient values, never on timing, so
          identical batches resolve identically in every process.

        Raises ``numpy.linalg.LinAlgError`` when a reduced system is
        singular, mirroring the dense kernel.
        """
        if update not in ("full", "woodbury", "auto"):
            raise ValueError(
                f"update must be 'full', 'woodbury', or 'auto', "
                f"got {update!r}"
            )
        if update in ("woodbury", "auto"):
            w = self._solve_woodbury(coeffs, n_batch,
                                     required=update == "woodbury")
            if w is None:
                w = self._solve_full(coeffs, n_batch)
        else:
            w = self._solve_full(coeffs, n_batch)
        out = np.swapaxes(w, -1, -2) @ self._rhs_red
        if self._h_out is not None:
            out = out + self._h_out
        return out

    def _solve_full(self, coeffs, n_batch: int) -> np.ndarray:
        mt = self._assemble_t(coeffs, n_batch)
        # LAPACK dispatch on tiny matrices is overhead-bound: a flat
        # 3-D batch with a contiguous right-hand side solves ~1.5x
        # faster than the 4-D broadcast form, so tile ``e_out`` once
        # per batch size and keep the copy around.
        m = self.n_reduced
        rhs = self._rhs_tiled.get(n_batch)
        if rhs is None:
            rhs = np.ascontiguousarray(np.broadcast_to(
                self._e_out, (n_batch,) + self._e_out.shape
            ).reshape(n_batch * self.n_freq, m, self.n_out))
            self._rhs_tiled = {n_batch: rhs}
        w = np.linalg.solve(
            mt.reshape(n_batch * self.n_freq, m, m), rhs
        ).reshape(n_batch, self.n_freq, m, self.n_out)
        self.last_update = "full"
        return w

    def _active_groups(self, coeffs, n_batch: int):
        """Groups whose coefficient differs from candidate 0's, plus
        the per-group ``(B, F)`` deltas."""
        active, deltas = [], []
        for group in self._groups:
            c = np.asarray(coeffs[group.name], dtype=complex)
            if c.ndim == 1 or c.shape[0] == 1:
                continue  # shared across the batch: never a delta
            delta = c - c[:1]
            if np.any(delta != 0):
                active.append(group)
                # Coefficients may be (B, 1) (frequency-flat values,
                # e.g. conductances) or (B, F); the update stacks them
                # on one frequency axis.
                deltas.append(np.broadcast_to(
                    delta, (delta.shape[0], self.n_freq)
                ))
        return active, deltas

    def _solve_woodbury(self, coeffs, n_batch: int,
                        required: bool) -> Optional[np.ndarray]:
        """The low-rank update path; ``None`` defers to the full solve.

        ``M_i^T = M_0^T + U diag(d_i) V^T`` with one rank-1 factor pair
        per active group.  The relative residual of every candidate is
        computed *exactly* in the low-rank factors —
        ``E - M_i^T W_i = U (t - D b + D G t)`` with ``t = D s`` — so an
        ill-conditioned small system cannot silently poison a row:
        offending candidates are refactorized in full and spliced back.
        """
        m = self.n_reduced
        active, deltas = self._active_groups(coeffs, n_batch)
        rank = len(active)
        if any(group.u_t is None for group in active):
            return None  # a higher-rank group: no low-rank structure
        if rank == 0:
            # Degenerate batch (all candidates identical): the full
            # assembly collapses to one system per frequency anyway.
            return None
        if not required and 2 * rank > m:
            return None  # too many active groups for the update to win

        # Reference factorization: candidate 0's reduced systems carry
        # both the adjoint columns and the update factors in one solve.
        ref = {name: np.asarray(c, dtype=complex)[:1]
               if np.asarray(c).ndim > 1 else np.asarray(c, dtype=complex)
               for name, c in coeffs.items()}
        m0t = self._assemble_t(ref, 1)[0]                   # (F, m, m)
        u_fac = np.stack([g.u_t for g in active], axis=1)   # (m, r)
        v_fac = np.stack([g.v_t for g in active], axis=1)   # (m, r)
        n_freq = self.n_freq
        u_cols = np.broadcast_to(
            u_fac, (n_freq,) + u_fac.shape
        )
        try:
            sol0 = np.linalg.solve(
                m0t, np.concatenate([self._e_out, u_cols], axis=-1)
            )
        except np.linalg.LinAlgError:
            if required:
                raise
            _obs_metrics.inc("mna.woodbury_fallbacks")
            return None
        n_out = self.n_out
        w0 = sol0[..., :n_out]                              # (F, m, n_out)
        zu = sol0[..., n_out:]                              # (F, m, r)
        v_t = v_fac.T
        g_small = v_t @ zu                                  # (F, r, r)
        b_small = v_t @ w0                                  # (F, r, n_out)
        d = np.stack(deltas, axis=-1)                       # (B, F, r)

        a_small = np.eye(rank) + g_small * d[..., None, :]
        try:
            s_small = np.linalg.solve(a_small, b_small)     # (B, F, r, n_out)
        except np.linalg.LinAlgError:
            # A singular capacitance system: the update is invalid for
            # at least one candidate; refactorize the batch in full.
            _obs_metrics.inc("mna.woodbury_fallbacks", n_batch)
            return self._solve_full(coeffs, n_batch)
        t = d[..., :, None] * s_small
        w = w0 - zu @ t                                     # (B, F, m, n_out)

        # Exact a-posteriori residual of M_i^T W_i = E, assembled from
        # the small factors only (zero in exact arithmetic).
        q = t - d[..., :, None] * b_small + d[..., :, None] * (g_small @ t)
        res = u_fac @ q                                     # (B, F, m, n_out)
        with np.errstate(invalid="ignore"):
            rel = np.max(
                np.abs(res).reshape(n_batch, -1), axis=1
            ) / self._res_scale  # scaled by the adjoint columns' size
        observe_residual(float(np.max(rel)), "mna.woodbury")
        bad = ~(rel <= self.residual_tol)  # catches NaN as bad
        if np.any(bad):
            _obs_metrics.inc("mna.woodbury_fallbacks", int(np.sum(bad)))
            idx = np.flatnonzero(bad)
            sub = {name: np.asarray(c, dtype=complex)[idx]
                   if np.asarray(c).ndim > 1 else c
                   for name, c in coeffs.items()}
            w[idx] = self._solve_full(sub, idx.size)
        _obs_metrics.inc("mna.woodbury_solves", int(n_batch - np.sum(bad)))
        self.last_update = "woodbury"
        return w


def build_plan(
    base: np.ndarray,
    groups: Sequence[MutableGroup],
    port_rows: np.ndarray,
    z0: float,
    rhs: np.ndarray,
    out_rows: Sequence[int],
    residual_tol: float = WOODBURY_RESIDUAL_TOL,
) -> SparsePlan:
    """Compile one topology's condensed solve plan.

    Parameters
    ----------
    base:
        ``(F, n, n)`` candidate-independent admittance tensor *without*
        port loads (they are folded into the reduced system here).
    groups:
        The candidate-dependent stamp groups; every node they touch
        becomes external.
    port_rows, z0:
        Port node rows and the shared reference impedance.
    rhs:
        ``(n, K)`` shared right-hand side (port injections plus noise
        columns) — condensed once per frequency.
    out_rows:
        Global rows of the solution to recover (ports first, then
        probes; ``-1`` marks a grounded probe and yields a zero row).

    The external set is the *stamp hull* only: nodes some group
    mutates.  Ports and probes the stamps never touch have constant
    rows **and** columns, so static condensation commutes with the
    candidate scatter and they are eliminated too — their solution
    rows are recovered as ``h_out + w^T rhs_red`` with the constant
    factors ``h_out = rows of A^-1 r_I`` and adjoint columns
    ``-(A^-1 B)^T`` precomputed per frequency.

    Raises :class:`PatternError` when the constant internal block is
    singular (no Schur complement exists).
    """
    base = np.asarray(base)
    if base.ndim != 3 or base.shape[-1] != base.shape[-2]:
        raise ValueError(
            f"expected a (F, n, n) base tensor, got {base.shape}"
        )
    n_freq, n_nodes, _ = base.shape
    port_rows = np.asarray(port_rows, dtype=int)

    needed = set(int(r) for r in port_rows)
    needed.update(int(r) for r in out_rows if int(r) >= 0)
    touched = set()
    for group in groups:
        touched.update(int(r) for r in np.asarray(group.rows))
        touched.update(int(c) for c in np.asarray(group.cols))
    if not touched:
        # Degenerate topology with no mutable stamps: keep the output
        # rows themselves external so a reduced system exists at all.
        touched = set(needed)
    if (max(touched | needed, default=-1) >= n_nodes
            or min(touched | needed, default=0) < 0):
        raise ValueError("group/port/probe indices exceed the node count")
    external = np.array(sorted(touched), dtype=int)
    internal = np.array(
        [k for k in range(n_nodes) if k not in touched], dtype=int
    )
    m = external.size
    local = np.full(n_nodes, -1, dtype=int)
    local[external] = np.arange(m)
    local_int = np.full(n_nodes, -1, dtype=int)
    local_int[internal] = np.arange(internal.size)

    # Port loads are constant stamps: external ones on the reduced
    # diagonal, condensed-out ones on the internal block's diagonal.
    load_global = np.zeros(n_nodes)
    np.add.at(load_global, port_rows, 1.0 / z0)

    d_block = base[:, external[:, None], external[None, :]].copy()
    d_block[:, np.arange(m), np.arange(m)] += load_global[external]

    n_out = len(out_rows)
    out_int = [(k, int(local_int[int(row)])) for k, row in enumerate(out_rows)
               if int(row) >= 0 and local[int(row)] < 0]

    if internal.size:
        a_block = base[:, internal[:, None], internal[None, :]]
        load_int = load_global[internal]
        if np.any(load_int):
            a_block = a_block.copy()
            idx = np.arange(internal.size)
            a_block[:, idx, idx] += load_int
        b_block = base[:, internal[:, None], external[None, :]]
        c_block = base[:, external[:, None], internal[None, :]]
        solve_a = _shared_pattern_lu(a_block)
        schur = np.empty_like(d_block)
        rhs_red = np.empty((n_freq, m, rhs.shape[1]), dtype=complex)
        rhs_int = np.ascontiguousarray(rhs[internal])
        rhs_ext = rhs[external]
        e_out = np.zeros((n_freq, m, n_out), dtype=complex)
        h_out = (np.zeros((n_freq, n_out, rhs.shape[1]), dtype=complex)
                 if out_int else None)
        for f in range(n_freq):
            a_inv_b = solve_a(f, b_block[f])
            a_inv_r = solve_a(f, rhs_int)
            schur[f] = d_block[f] - c_block[f] @ a_inv_b
            rhs_red[f] = rhs_ext - c_block[f] @ a_inv_r
            for k, li in out_int:
                e_out[f, :, k] = -a_inv_b[li, :]
                h_out[f, k, :] = a_inv_r[li, :]
    else:
        schur = d_block
        rhs_red = np.broadcast_to(
            rhs[external], (n_freq, m, rhs.shape[1])
        ).astype(complex)
        e_out = np.zeros((n_freq, m, n_out), dtype=complex)
        h_out = None

    for k, row in enumerate(out_rows):
        if int(row) >= 0 and local[int(row)] >= 0:
            e_out[:, local[int(row)], k] = 1.0

    lowered = []
    for group in groups:
        lrows = local[np.asarray(group.rows, dtype=int)]
        lcols = local[np.asarray(group.cols, dtype=int)]
        signs = np.asarray(group.signs, dtype=float)
        factors = _rank1_factors(lrows, lcols, signs, m)
        u_t, v_t = factors if factors is not None else (None, None)
        lowered.append(_LocalGroup(group.name, lrows, lcols, signs,
                                   u_t, v_t))

    return SparsePlan(
        n_nodes, external, internal, lowered,
        np.ascontiguousarray(np.swapaxes(schur, -1, -2)),
        rhs_red, e_out, h_out=h_out, residual_tol=residual_tol,
    )
