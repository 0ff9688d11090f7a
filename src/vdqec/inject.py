"""Exhaustive logical Pauli fault injection.

A fault site is one gate plus a Pauli error applied right after it to
the qubits the gate touches. Two enumeration modes exist:

  * "mirrored": one shared Pauli per site; a two-qubit gate gets the
    same error on both of its qubits (X.X, Y.Y, Z.Z);
  * "full-depolarizing": every nonidentity Pauli pair on two-qubit
    gates (15 combinations); single-qubit gates get X, Y, Z either way.

Each injected run is simulated exactly and scored by the probability of
still reading the correct bitstring, relative to the noiseless run. The
campaign caches the noiseless state psi_g after every gate g, and the
Pauli image P.psi_g of a site at g is the faulty run's state there. The
fault sites are scored by one of two sweeps, which agree to within 1e-12:

  * the adjoint sweep walks the R = 2^(n-m) basis states that read the
    correct bitstring (m measured qubits) backwards through the adjoint
    gates once, and scores a site at g as sum_r |<phi_r|P.psi_g>|^2,
    with phi_r the row walked back to gate g (Jones and Gacon,
    arXiv:2009.02823). It builds no image: at each gate with sites it
    sums bra times ket over the qubits the gate does not touch, once per
    pair of values of the touched ones, and scores all of the gate's
    Paulis from that reduced overlap. It costs about R(G + S) row-gate
    products for G gates and S sites;
  * the block replay replays consecutive sites together in one (B, 2^n)
    block, one row per site: a row joins the block at its gate and every
    later gate is applied once to the whole block; it costs the sum over
    sites of the gates after each site's own.

run_campaign takes the adjoint sweep when its cost is at most the
replay's, as for the QPE benchmarks (R = 2), and the block replay
otherwise, as when few qubits are measured. The adjoint sweep holds all
R rows in one block, at most 2^(n-1) rows since a qubit is measured;
the replay holds at most _BLOCK_AMPS amplitudes in a chunk of rows.
sim owns the amplitude arithmetic of both sweeps: the gate kernel, which
also applies a replayed site's Pauli product, the reduced overlap and
the readout. All of it sums in a fixed order, with no BLAS product and
no fused complex product, so the records depend on neither the host's
BLAS kernel nor its numpy SIMD level, and a replayed row comes out
bitwise equal to a replay of its site alone, whatever the chunk size.
sim's readout, the one output_distribution uses, scores the noiseless
run, every replayed site and the adjoint sweep's overlaps; this module
computes no |amp|^2 of its own. This module enumerates the sites and
chooses the sweep; vdqec.profiles.build_profile turns the sweep's PSTs
into the records and gate summaries, by the rules the profile loader
checks a saved profile with. The cached states hold G * 2^n amplitudes
for G gates, which MAX_CACHED_AMPS bounds.
The campaign aggregates records into spatio-temporal cells keyed by
(qubit, timestep): the mean relative PST over every error type at the
gates touching that cell. Cells of non-faultable gates report 1.0 with
zero records. A cell holds one gate, so gate lists that put two gates on
one qubit at one timestep are rejected.

The profile model (the site, record, summary and profile classes, the
fault-site rule, build_profile and the profile document) is numpy-free
and lives in vdqec.profiles, which a command that only reads a profile
loads instead of this module.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .circuits import Circuit, check_bitstring
from .config import RunConfig
from .errors import CampaignError, ValidationError
from .profiles import (
    FaultSite,
    SensitivityProfile,
    _check_distinct_cells,
    _sites,
    build_profile,
)
from .sim import (
    _apply,
    _apply_op,
    _masses,
    _outcome_rows,
    _reduced_overlap,
    gate_matrix,
    zero_state,
)


# amplitudes in one chunk of the block replay (rows times 2^n). The block
# replay of QPE with 8 counting qubits at eps 0.1 and one measured qubit
# (256 rows, 497 gates, 1,737 full-depolarizing sites) took 1.9 s at 4096,
# 1.3 s at 8192, 2.0 s at 16384, 2.7 s at 2^16 and 3.5 s at 2^20, where
# peak RSS rose from 39 to 105 MB: a block that outgrows the CPU caches
# costs more than the calls it saves. With 11 counting qubits (2,048 rows,
# 692 gates, 1,668 mirrored sites) it took 29.8, 20.6, 19.3 and 28.9 s at
# 4096, 8192, 16384 and 2^16 (numpy 2.4, 2 cores, fresh process per run)
_BLOCK_AMPS = 8192
# amplitudes of the noiseless states run_campaign caches, G * 2^n for G
# gates: 1 GiB of states. The largest circuit the pipeline builds is QPE
# with 11 counting qubits compiled with every rotation at the
# MAX_SEARCH_LENGTH cap of 34 symbols: each of its 66 ControlledPhase gates
# becomes three rotations and two CNOTs and its 23 other gates pass
# through, so it has 66 * (3 * 34 + 2) + 23 = 6,887 gates on 12 qubits,
# or 28,209,152 amplitudes
MAX_CACHED_AMPS = 2**26


def enumerate_sites(
    circuit: Circuit, mode: str = RunConfig.injection_mode
) -> list[FaultSite]:
    """Every fault site of the circuit, ordered by gate index then by a
    fixed Pauli order; raises ValidationError for an unknown mode."""
    return _sites(circuit.ops, mode)


def _replay_psts(circuit: Circuit, prefixes, sites, rows) -> list[float]:
    """PST of each site by block replay. The sites, in campaign order, are
    cut into chunks of at most max(1, _BLOCK_AMPS >> n), one (B, 2^n)
    block each, one state per row. For each of a chunk's sites in turn,
    the block takes the gates after the previous site's gate up to the
    site's own, then, in the site's own row, the cached state after that
    gate times the site's Pauli product; after the last site it takes the
    tail, the gates left, once. rows lists the basis states that read the
    correct bitstring, in ascending order."""
    n, ops = circuit.num_qubits, circuit.ops
    width = max(1, _BLOCK_AMPS >> n)
    psts = []
    for start in range(0, len(sites), width):
        chunk = sites[start:start + width]
        block = np.zeros((len(chunk), 1 << n), dtype=complex)
        g = chunk[0].gate_index
        for k, site in enumerate(chunk):
            for op in ops[g + 1:site.gate_index + 1]:
                block = _apply_op(block, n, op)
            g = site.gate_index
            block[k] = _apply(prefixes[g], n, ops[g].qubits,
                              _pauli_stack((site.paulis,))[0])
        for op in ops[g + 1:]:
            block = _apply_op(block, n, op)
        psts += _masses(block, rows)
    return psts


@functools.cache
def _pauli_stack(labels) -> np.ndarray:
    """The matrices of the Pauli products in `labels`, stacked as
    (S, 2^k, 2^k); labels[s][i] acts on the gate's qubit i, the first the
    most significant bit of the matrix index. Every entry is 0, +-1 or
    +-i, so each product with an amplitude is exact."""
    mats = []
    for paulis in labels:
        mat = np.ones((1, 1), dtype=complex)
        for p in paulis:
            mat = np.kron(mat, np.eye(2) if p == "I" else gate_matrix(p))
        mats.append(mat)
    return np.array(mats)


def _adjoint_psts(circuit: Circuit, prefixes, sites, rows) -> list[float]:
    """PST of each site by one backward sweep: the R basis states of `rows`
    walk back through the adjoint gates as one (R, 2^n) block, one row
    each, which at least one measured qubit bounds to R <= 2^(n-1) rows.
    The gates with sites are scored last first; before each, the block
    walks back through the gates between the previous such gate and it, so
    the walk stops at the first site's gate. At gate g row r holds the
    conjugate of phi_r = U_{g+1}^dagger ... U_{G-1}^dagger |r>, walked back
    by conj(U^dagger) = U^T; IEEE conjugation is exact, so the scores are
    those of walking phi_r itself. A site at g with Pauli product P scores
    sum_r |<phi_r | P psi_g>|^2, where psi_g is the cached state after
    gate g (arXiv:2009.02823). The gate's reduced overlap red holds every
    such overlap before P, so <phi_r | P psi_g> = sum_ab P[a, b] red[a, b, r]
    for each site of the gate at once, and no Pauli image is built."""
    n, ops = circuit.num_qubits, circuit.ops
    bra = np.zeros((len(rows), 1 << n), dtype=complex)
    bra[np.arange(len(rows)), rows] = 1.0
    groups = [(g, tuple(s.paulis for s in group))
              for g, group in itertools.groupby(sites, key=lambda s: s.gate_index)]
    masses, g = [], len(ops) - 1
    for gate, labels in reversed(groups):
        for op in ops[g:gate:-1]:
            bra = _apply(bra, n, op.qubits, gate_matrix(op.kind, op.params).T)
        g = gate
        red = _reduced_overlap(bra, prefixes[g], ops[g].qubits)
        amps = np.einsum("sab,abr->sr", _pauli_stack(labels), red)
        masses.append(_masses(amps, slice(None)))
    # the gates were scored last first; the sites run in campaign order
    return [m for gate_masses in reversed(masses) for m in gate_masses]


def run_campaign(
    circuit: Circuit,
    correct_bitstring: str,
    mode: str = RunConfig.injection_mode,
) -> SensitivityProfile:
    """Simulate every fault site exactly and aggregate the results.

    The sites of enumerate_sites are scored by the adjoint sweep or by
    the block replay, whichever needs fewer row-gate products (see
    the module docstring), and vdqec.profiles.build_profile builds the
    records and gate summaries from their PSTs. Raises ValidationError,
    before simulating, for an unknown mode or when the cached states would
    exceed MAX_CACHED_AMPS amplitudes.
    """
    if not circuit.ops:
        raise CampaignError("circuit has no gates to inject into")
    n = circuit.num_qubits
    if len(circuit.ops) << n > MAX_CACHED_AMPS:
        raise ValidationError(f"{len(circuit.ops)} gates on {n} qubits exceed the "
                              f"campaign's limit of {MAX_CACHED_AMPS} cached amplitudes")
    _check_distinct_cells(circuit.ops)
    check_bitstring(correct_bitstring, len(circuit.measured_qubits))
    sites = enumerate_sites(circuit, mode)
    rows = _outcome_rows(n, circuit.measured_qubits)[int(correct_bitstring, 2)]
    prefixes = []
    amps = zero_state(n).amplitudes
    for op in circuit.ops:
        amps = _apply_op(amps, n, op)
        prefixes.append(amps)
    pst_ideal = _masses(amps, rows)
    if pst_ideal <= 0.0:
        raise CampaignError(
            "noiseless PST is zero; relative sensitivity is undefined"
        )

    # row-gate products: the backward sweep walks R rows through every
    # gate and takes R overlaps per site; the replay walks each site's
    # row through the gates after its own. The fork pays for itself: QPE
    # with 11 counting qubits compiled at eps 0.1 and reading qubit 0 (692
    # gates, 1,668 mirrored sites, R = 2,048) costs 4.8 M products by the
    # adjoint sweep and 0.46 M by the replay, which take 163-169 s at a
    # 399 MB peak RSS and 17.4 s at 78-79 MB, with records within 5.6e-15
    # (numpy 2.4, 2 cores, fresh process per sweep)
    replayed = sum(len(circuit.ops) - 1 - s.gate_index for s in sites)
    adjoint = len(rows) * (len(circuit.ops) + len(sites)) <= replayed
    noisy = (_adjoint_psts if adjoint else _replay_psts)(circuit, prefixes, sites, rows)
    return build_profile(circuit, mode, pst_ideal, sites, noisy)
