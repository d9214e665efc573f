"""Every numerical tolerance of the package, one name per meaning.

* ``NORM_ATOL``: a squared norm equals 1, or did not move.  ``DataSet``
  and the domain rules of ``encodings`` (so ``validate``, ``check`` and
  the loaders) reject input whose squared norm is further from 1;
  ``sim.apply_circuit`` rejects a circuit that moved the squared norm
  further.  One value for both is what lets a state the simulator accepts
  also be decoded.
* ``ATOL_DECODE``: a probability or fidelity equals its target.
  ``encodings.decode`` accepts the candidate of every format but Amplitude
  only if its reference state has fidelity at least ``1 - ATOL_DECODE``
  with the state.  A basis readout or conversion is certain
  (``sim.certain_outcome``) only if its peak outcome has probability at
  least ``1 - ATOL_DECODE``, the same bound, since a basis state's
  fidelity with ``|y>`` is the probability of ``y``.
* ``PHASE_ATOL``: a phase counts as 0.  An amplitude load whose phases are
  all this close to 0 emits no phase pass.
* ``EQUIV_ATOL``: the amplitude equivalence bound.  Two computations of
  the same state are equivalent when every amplitude agrees within it.

Every check is written so that NaN fails it: a value is accepted by
``value >= bound`` or ``abs(value - target) <= atol`` and rejected by the
negation of that, never by ``value < bound``, which NaN would pass.

Equivalence rule for speed changes.  A change that keeps every result bit
for bit needs no tolerance.  A change that reorders or fuses arithmetic,
and so gives up bit-identity, is held to this: on the seeded inputs of the
tests and the benchmark, amplitudes agree with the parent's within
``EQUIV_ATOL``, decoded values within ``ATOL_DECODE``, and seeded draws
and ``qae_estimate`` results are identical.  No value in this table moves
to make such a change pass.
"""

NORM_ATOL = 1e-9
ATOL_DECODE = 1e-9
PHASE_ATOL = 1e-14
EQUIV_ATOL = 1e-12
