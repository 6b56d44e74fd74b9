"""The original satisfying-mask loop of the oracle, kept as a reference
for the differential tests of the bitwise kernel in `dqprep.oracle`.

It tests every universal literal of every clause with a generator and
recomputes each existential's table row per literal; it is only run on
small formulas.
"""

from __future__ import annotations

from dqprep import Dqbf
from dqprep.oracle import _bit_mask, _layout


def reference_satisfying_mask(formula: Dqbf) -> int:
    """Bit T is set iff candidate tuple T is a Skolem tuple of `formula`
    (no budget check)."""
    layout = _layout(formula.prefix.universals,
                     formula.prefix.existentials.items())
    nbits = 1 << layout.total_bits
    full = (1 << nbits) - 1
    entry_for = {e.variable: e for e in layout.entries}
    split = []
    for clause in formula.matrix:
        ulits = []
        elits = []
        for lit in clause:
            var = abs(lit)
            if var in layout.uindex:
                ulits.append((layout.uindex[var], lit > 0))
            else:
                elits.append((entry_for[var], lit > 0))
        split.append((ulits, elits))
    mask = full
    for urank in range(1 << len(layout.universals)):
        for ulits, elits in split:
            if any(bool((urank >> i) & 1) == positive for i, positive in ulits):
                continue  # clause satisfied by the universal assignment
            acc = 0
            for entry, positive in elits:
                row = 0
                for j, bit in enumerate(entry.domain_bits):
                    row |= ((urank >> bit) & 1) << j
                bit_mask = _bit_mask(layout.total_bits, entry.offset + row)
                acc |= bit_mask if positive else full ^ bit_mask
            mask &= acc
            if mask == 0:
                return 0
    return mask
